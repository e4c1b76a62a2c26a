package pe

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// idleOutcome is everything about an idle worker that anything else in the
// simulation can see.
type idleOutcome struct {
	End       sim.Time
	Log       []string // every deposit, drain and piece of work, with its instant
	LockWait  sim.Time
	Contended int64
	Acquires  int64
	IdleTime  sim.Time
	Trace     []byte
}

// runIdleWorker runs one worker that has nothing of its own to do against
// two depositors whose deposits keep landing inside its polls, and a
// timer that every so often gives it work no deposit announces. With
// stepped false its main loop is the loop the engines had before Idle:
// lock, look, unlock, sleep, one switch into the worker per kernel event.
func runIdleWorker(t *testing.T, stepped bool) (idleOutcome, sim.Counters) {
	const deposits, chores = 40, 25
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	var rt Runtime
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
		Net:      fabric.EthernetDefaults(), MPICosts: mpi.DefaultCosts(),
		QueueKind: "heap", Trace: tw,
	}, func(*stats.Run) {})
	cost := cluster.KNLDefaults()
	var n Node
	rt.AddNode(&n, cost)

	var out idleOutcome
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d ", rt.Env.Now())+fmt.Sprintf(format, args...))
	}
	due, done, got := false, 0, 0
	finished := func() bool { return got == 2*deposits && done == chores }

	var w Worker
	drain := func(p *sim.Proc) bool {
		batch, _ := w.Inbox.Take(p, 0)
		if len(batch) == 0 {
			return false
		}
		p.Advance(sim.Time(len(batch)) * cost.InboxDrainPerMsg)
		for _, ev := range batch {
			logf("drained %d", ev.Kind)
		}
		got += len(batch)
		w.Inbox.Recycle(batch)
		return true
	}
	chore := func(p *sim.Proc) bool {
		if !due {
			return false
		}
		due = false
		p.Advance(cost.EventOverhead)
		done++
		logf("chore %d", done)
		return true
	}
	rt.AddWorker(&w, &n, func(p *sim.Proc) {
		if !stepped {
			for {
				worked := drain(p)
				worked = chore(p) || worked
				if worked {
					w.SetPhase(trace.PhaseProcessing)
					continue
				}
				if finished() {
					return
				}
				w.SetPhase(trace.PhaseIdle)
				w.St.IdleTime += cost.IdlePoll
				p.Advance(cost.IdlePoll)
			}
		}
		w.Busy = func() bool { return due || finished() }
		drained := false
		for {
			worked := !drained && drain(p)
			drained = false
			worked = chore(p) || worked
			if worked {
				w.SetPhase(trace.PhaseProcessing)
				continue
			}
			if finished() {
				return
			}
			w.SetPhase(trace.PhaseIdle)
			drained = w.Idle(p)
		}
	})
	// Gaps off the 270 ns poll period, so deposits arrive in every phase
	// of it: lock held, lock free, inbox already filled by the other.
	for d, gap := range []sim.Time{3970, 10130} {
		d, gap := d, gap
		rt.AddProcess(fmt.Sprintf("depositor%d", d), func(p *sim.Proc) {
			for i := 0; i < deposits; i++ {
				p.Advance(gap + sim.Time(i%7)*31)
				w.Inbox.Deposit(p, &event.Event{Kind: uint16(100*d + i)})
				logf("deposited %d", 100*d+i)
			}
		})
	}
	var tick func()
	ticks := 0
	tick = func() {
		due = true
		if ticks++; ticks < chores {
			rt.Env.After(25030, tick)
		}
	}
	rt.Env.After(25030, tick)

	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	out.End = rt.Env.Now()
	out.LockWait, out.Contended, out.Acquires = w.inMu.WaitTime, w.inMu.Contended, w.inMu.Acquires
	out.IdleTime = w.St.IdleTime
	out.Trace = buf.Bytes()
	return out, rt.Env.Counters()
}

// TestIdleMatchesPollingLoop: a worker idling through Idle is, to its
// depositors and in every statistic, the worker that polls in a loop —
// the same lock waits and contention counts above all — while nearly all
// of its kernel events stop costing a process switch.
func TestIdleMatchesPollingLoop(t *testing.T) {
	loop, lk := runIdleWorker(t, false)
	idle, ik := runIdleWorker(t, true)
	if !reflect.DeepEqual(loop, idle) {
		loop.Trace, idle.Trace = nil, nil
		t.Errorf("polling loop\n%+v\nIdle\n%+v", loop, idle)
	}
	if loop.Contended == 0 || loop.LockWait == 0 {
		t.Error("no deposit ever waited for the polling worker: the test does not exercise the lock")
	}
	if lk.Dispatches != ik.Dispatches || lk.Steps != 0 || ik.ProcSwitches+ik.Steps != lk.ProcSwitches {
		t.Errorf("polling loop %+v, Idle %+v: same dispatches, each step in place of one switch", lk, ik)
	}
	if ik.Steps < 3*ik.ProcSwitches {
		t.Errorf("Idle: %d steps against %d process switches; idle passes are not running in the kernel", ik.Steps, ik.ProcSwitches)
	}
}

// TestIdleAllocatesNothing: the step is built once per worker, so going
// idle and coming back costs no allocation.
func TestIdleAllocatesNothing(t *testing.T) {
	var rt Runtime
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
		Net:      fabric.EthernetDefaults(), MPICosts: mpi.DefaultCosts(), QueueKind: "heap",
	}, func(*stats.Run) {})
	var n Node
	rt.AddNode(&n, cluster.KNLDefaults())
	var w Worker
	rt.AddWorker(&w, &n, func(p *sim.Proc) {
		passes := 0
		w.Busy = func() bool { passes++; return passes%5 == 0 }
		if avg := testing.AllocsPerRun(200, func() { w.Idle(p) }); avg != 0 {
			t.Errorf("%v allocations per Idle of five passes, want 0", avg)
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
