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

// The comm pass the tests drive: outbox, an any-source receive, a
// ring-style receive from rank 1 that the "engine" only makes while
// ringOn, and a chore that falls due on a timer.
const (
	tstOut = iota
	tstData
	tstRing
	tstChore

	tagData = mpi.TagUser
	tagRing = mpi.TagUser + 1
)

// commOutcome is everything about a comm thread that anything else in the
// simulation can see.
type commOutcome struct {
	End                         sim.Time
	Log                         []string // every send, receive and chore, with its instant
	OutAcquires, OutContended   int64
	OutWait                     sim.Time
	RankAcquires, RankContended int64
	RankWait                    sim.Time
	Trace                       []byte
}

// commResumes counts where the stepped form handed passes back.
type commResumes struct {
	start, held        [tstChore + 1]int // by stage: at its start, and inside its probe
	before, during, in int               // data packets received mid-probe (stashed before it began, or during it) and by a TryRecv
}

// runCommThread runs node 0's comm thread of a two-node world against a
// worker of its own node that deposits into the outbox and now and then
// sends for itself, holding the rank lock, a peer whose packets land before, during and after
// the probes' lock-hold + poll windows, and a timer that flips the two
// engine conditions. With stepped false the thread is the loop the
// engines had before CommLoop: every pass from its top, one switch per
// kernel event, Advance(IdlePoll) after a pass that moved nothing.
func runCommThread(t *testing.T, stepped bool) (commOutcome, sim.Counters, commResumes) {
	const deposits, packets, flips = 40, 40, 20
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	var rt Runtime
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: 2, WorkersPerNode: 1, LPsPerWorker: 1},
		Net:      fabric.EthernetDefaults(), MPICosts: mpi.DefaultCosts(),
		QueueKind: "heap", Trace: tw,
	}, func(*stats.Run) {})
	cost := cluster.KNLDefaults()
	cost.RegionalLockHold = 470 // a wide target for the depositor: a quarter of the idle pass
	var n0, n1 Node
	var w0, w1 Worker
	var out commOutcome
	var res commResumes
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d ", rt.Env.Now())+fmt.Sprintf(format, args...))
	}
	due, ringOn, chores := false, true, 0
	stashedAtStart := false // a match was already stashed when the probe handing back began

	pass := func(p *sim.Proc, from int, held bool) bool {
		switch {
		case !held:
			res.start[from]++
		case stashedAtStart:
			res.held[from]++
			res.before++
		default:
			res.held[from]++
			res.during++
		}
		worked := false
		switch from {
		case tstOut:
			batch, backlog := n0.Out.Take(p, 4)
			for _, ev := range batch {
				n0.Send(p, 1, tagData, 32, ev, backlog)
				logf("sent %d", ev.Kind)
				worked = true
			}
			n0.Out.Recycle(batch)
			fallthrough
		case tstData:
			for i := 0; i < 2; i++ {
				m, ok := n0.Recv(p, mpi.AnySource, tagData, held)
				if !ok {
					break
				}
				if !held {
					res.in++
				}
				held = false
				n0.TraceRecv(p, m, i)
				logf("data %v", m.Payload)
				worked = true
			}
			fallthrough
		case tstRing:
			// A pass resumed inside this probe must not ask ringOn again:
			// it may have flipped while the probe's cost elapsed.
			if held || ringOn {
				if m, ok := n0.Recv(p, 1, tagRing, held); ok {
					logf("ring %v", m.Payload)
					worked = true
				}
			}
			fallthrough
		case tstChore:
			if due {
				due = false
				p.Advance(cost.EventOverhead)
				chores++
				logf("chore %d", chores)
				worked = true
			}
		}
		return worked
	}
	// watch notes, as a probe of (src, tag) starts, whether its match is
	// already stashed.
	watch := func(src, tag int) func() bool {
		return func() bool { stashedAtStart = n0.Rank.Matches(src, tag); return true }
	}
	watchRing := watch(1, tagRing)

	rt.AddNode(&n0, cost)
	rt.AddWorker(&w0, &n0, func(p *sim.Proc) {
		// Gaps off the idle pass's period, so deposits and lock grabs land
		// in every phase of it.
		for i := 0; i < deposits; i++ {
			p.Advance(15930 + sim.Time(i%7)*31)
			if i%3 == 0 { // the rank lock, for several idle passes
				n0.Rank.Send(p, 1, mpi.TagUser+9, 16, nil)
				logf("worker sent")
				p.Advance(7370)
			}
			n0.Out.Deposit(p, &event.Event{Kind: uint16(i)})
			logf("deposited %d", i)
		}
		p.Advance(100 * sim.Microsecond) // the comm thread outlives all traffic
	})
	rt.AddComm(&n0, func(p *sim.Proc) {
		if stepped {
			n0.CommLoop(p, pass)
			return
		}
		for n0.WorkersExited < 1 {
			if !pass(p, 0, false) {
				p.Advance(cost.IdlePoll)
			}
		}
	},
		TakeProbe(&n0.Out),
		RecvProbe(mpi.AnySource, tagData).If(watch(mpi.AnySource, tagData)),
		RecvProbe(1, tagRing).If(func() bool { return ringOn && watchRing() }),
		QuietProbe(func() bool { return !due }),
	)
	rt.AddNode(&n1, cost)
	rt.AddWorker(&w1, &n1, func(p *sim.Proc) {
		for i := 0; i < packets; i++ {
			p.Advance(11970 + sim.Time(i%11)*53)
			tag := tagData
			if i%4 == 3 {
				tag = tagRing
			}
			n1.Rank.Send(p, 0, tag, 24, i)
		}
	})
	var tick func()
	ticks := 0
	tick = func() {
		due = true
		ringOn = ticks%3 != 1
		if ticks++; ticks < flips {
			rt.Env.After(29970, tick)
		}
	}
	rt.Env.After(29970, tick)

	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	out.End = rt.Env.Now()
	out.OutAcquires, out.OutContended, out.OutWait = n0.OutMu.Acquires, n0.OutMu.Contended, n0.OutMu.WaitTime
	out.RankAcquires, out.RankContended, out.RankWait = n0.Rank.LockStats()
	out.Trace = buf.Bytes()
	return out, rt.Env.Counters(), res
}

// TestCommLoopMatchesPollingLoop: a comm thread idling through CommLoop
// is, to the threads that share its locks, to its peers and in the trace,
// the thread that runs every pass itself — while the kernel events of its
// idle passes stop costing a process switch.
func TestCommLoopMatchesPollingLoop(t *testing.T) {
	loop, lk, _ := runCommThread(t, false)
	steps, sk, res := runCommThread(t, true)
	if !reflect.DeepEqual(loop, steps) {
		loop.Trace, steps.Trace = nil, nil
		t.Errorf("polling loop\n%+v\nCommLoop\n%+v", loop, steps)
	}
	if loop.OutContended == 0 || loop.RankContended == 0 {
		t.Errorf("%d outbox and %d rank acquisitions queued: the test does not exercise both locks", loop.OutContended, loop.RankContended)
	}
	if lk.Dispatches != sk.Dispatches || lk.Steps != 0 || sk.ProcSwitches+sk.Steps != lk.ProcSwitches {
		t.Errorf("polling loop %+v, CommLoop %+v: same dispatches, each step in place of one switch", lk, sk)
	}
	if 3*sk.Steps < lk.ProcSwitches {
		t.Errorf("CommLoop: %d steps in place of the loop's %d process switches; idle passes are not running in the kernel", sk.Steps, lk.ProcSwitches)
	}
	// The ring probe starts the instant the data probe lets go of the rank
	// lock, so it alone can never find the lock taken at its start.
	for _, st := range []int{tstOut, tstData, tstChore} {
		if res.start[st] == 0 {
			t.Errorf("no pass was handed back at the start of stage %d", st)
		}
	}
	if res.held[tstData] == 0 || res.held[tstRing] == 0 {
		t.Errorf("passes handed back mid-probe: %v by stage, want some in both receive stages", res.held)
	}
	if res.before == 0 || res.during == 0 || res.in == 0 {
		t.Errorf("packets received mid-probe: %d stashed before the probe, %d landing during it; %d by a TryRecv; want all three",
			res.before, res.during, res.in)
	}
}

// idleCommNode builds a one-node runtime whose comm thread runs body with
// an idle pass of an outbox take, two receive probes and a predicate.
func idleCommNode(n *Node, quiet func() bool, body func(p *sim.Proc)) *Runtime {
	rt := &Runtime{}
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
		Net:      fabric.EthernetDefaults(), MPICosts: mpi.DefaultCosts(), QueueKind: "heap",
	}, func(*stats.Run) {})
	rt.AddNode(n, cluster.KNLDefaults())
	rt.AddComm(n, body,
		TakeProbe(&n.Out), RecvProbe(mpi.AnySource, tagData), RecvProbe(mpi.AnySource, tagRing), QuietProbe(quiet))
	return rt
}

// TestCommIdleAllocatesNothing: the step is bound once per node, so a
// comm thread going idle and coming back costs no allocation.
func TestCommIdleAllocatesNothing(t *testing.T) {
	var n Node
	passes := 0
	rt := idleCommNode(&n, func() bool { passes++; return passes%5 != 0 }, func(p *sim.Proc) {
		if avg := testing.AllocsPerRun(200, func() { n.idlePasses(p) }); avg != 0 {
			t.Errorf("%v allocations per idle episode of five passes, want 0", avg)
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommIdle: one idle comm pass (six kernel events) per op, run by
// the thread itself and as Poll steps.
func BenchmarkCommIdle(b *testing.B) {
	for _, stepped := range []bool{false, true} {
		name := "loop"
		if stepped {
			name = "steps"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var n Node
			passes := 0
			quiet := func() bool { passes++; return passes <= b.N }
			rt := idleCommNode(&n, quiet, func(p *sim.Proc) {
				if stepped {
					n.idlePasses(p)
					return
				}
				for {
					p.Advance(n.Cost.IdlePoll)
					batch, _ := n.Out.Take(p, 0)
					n.Out.Recycle(batch)
					n.Rank.TryRecv(p, tagData)
					n.Rank.TryRecv(p, tagRing)
					if !quiet() {
						return
					}
				}
			})
			b.ResetTimer()
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
