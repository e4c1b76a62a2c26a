package pe

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// How a thread under test idles: through the pass machine, through the
// machine with Runtime.LiteralIdle set, or in a loop written out here —
// what the engines' loops were before there was a machine.
type idleMode int

const (
	stepped idleMode = iota
	literal
	written
)

// idleOutcome is everything about an idling thread that anything else in
// the simulation can see: when the run ends, every event with its
// instant, every lock's statistics, the thread's own books and the trace.
type idleOutcome struct {
	End      sim.Time
	Log      []string
	Locks    [3][3]int64 // per lock: acquisitions, contended ones, wait time
	IdleTime sim.Time
	Quiet    int // passes the end-of-pass bookkeeping counted
	Trace    []byte
}

func lockStats(m *sim.Mutex) [3]int64 { return [3]int64{m.Acquires, m.Contended, int64(m.WaitTime)} }

// resumes counts where the machine handed passes back, by stage, and how
// the receives of the comm thread's pass were made.
type resumes struct {
	at     [4]int // passes resumed at the stage
	paid   [4]int // receives that completed a probe an idle pass had paid for
	polled int    // receives by an ordinary poll
}

// newIdleRuntime builds the runtime both scenarios run on.
func newIdleRuntime(nodes int, mode idleMode, tw *trace.Writer) *Runtime {
	rt := &Runtime{LiteralIdle: mode == literal}
	rt.Init(Config{
		Topology:  cluster.Topology{Nodes: nodes, WorkersPerNode: 1, LPsPerWorker: 1},
		QueueKind: "heap", Trace: tw,
	}, func(*stats.Run) {})
	return rt
}

// The worker's pass: its inbox, a second mailbox, and a chore that falls
// due on a timer and that no deposit announces.
const (
	twInbox = iota
	twSide
	twChore
)

// runIdleWorker runs one worker that has nothing of its own to do against
// two depositors, one per mailbox, whose deposits keep landing inside its
// polls, and the timer.
func runIdleWorker(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	const deposits, chores = 40, 25
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rt := newIdleRuntime(1, mode, tw)
	cost := cluster.KNLDefaults()
	var n Node
	rt.AddNode(&n, cost)

	var out idleOutcome
	var res resumes
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d ", rt.Env.Now())+fmt.Sprintf(format, args...))
	}
	due, done, got := false, 0, 0
	finished := func() bool { return got == 2*deposits && done == chores }

	var w Worker
	sideMu := sim.Mutex{Name: "side", HoldCost: cost.RegionalLockHold}
	side := NewMailbox[*event.Event](&sideMu, cost.RegionalSend)
	drain := func(p *sim.Proc, box *Mailbox[*event.Event]) bool {
		batch, _ := box.Take(p, 0)
		if len(batch) == 0 {
			return false
		}
		p.Advance(sim.Time(len(batch)) * cost.InboxDrainPerMsg)
		for _, ev := range batch {
			logf("drained %d", ev.Kind)
		}
		got += len(batch)
		box.Recycle(batch)
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
	quiet := func() { out.Quiet++ }
	rt.AddWorker(&w, &n, func(p *sim.Proc) {
		for from := 0; !finished(); {
			res.at[from]++
			worked := from <= twInbox && drain(p, &w.Inbox)
			worked = from <= twSide && drain(p, &side) || worked
			worked = chore(p) || worked
			from = 0
			if worked {
				w.SetPhase(trace.PhaseProcessing)
				continue
			}
			w.SetPhase(trace.PhaseIdle)
			quiet()
			if mode == written {
				w.St.IdleTime += cost.IdlePoll
				p.Advance(cost.IdlePoll)
			} else {
				from = w.Idle(p)
			}
		}
	})
	w.IdlePass(finished, quiet, TakeProbe(&w.Inbox), TakeProbe(&side), QuietProbe(func() bool { return !due }))
	// Gaps off the poll period, so deposits arrive in every phase of it:
	// lock held, lock free, box already filled.
	for d, gap := range []sim.Time{3970, 10130} {
		box := &w.Inbox
		if d == 1 {
			box = &side
		}
		rt.AddProcess(fmt.Sprintf("depositor%d", d), func(p *sim.Proc) {
			for i := 0; i < deposits; i++ {
				p.Advance(gap + sim.Time(i%7)*31)
				box.Deposit(p, &event.Event{Kind: uint16(100*d + i)})
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
	out.Locks = [3][3]int64{lockStats(&w.inMu), lockStats(&sideMu)}
	out.IdleTime = w.St.IdleTime
	out.Trace = buf.Bytes()
	return out, rt.Env.Counters(), res
}

// The comm thread's pass: outbox, an any-source receive, a ring-style
// receive from rank 1 that the "engine" only makes while ringOn, and a
// chore that falls due on a timer.
const (
	tcOut = iota
	tcData
	tcRing
	tcChore

	tagData = mpi.TagUser
	tagRing = mpi.TagUser + 1
)

// runCommThread runs node 0's comm thread of a two-node world against a
// worker of its own node that deposits into the outbox and now and then
// sends for itself, holding the rank lock, a peer whose packets land
// before, during and after the probes' lock-hold + poll windows, and the
// timer. The thread itself flips ringOn, with every chore: what a
// RecvProbe's condition reads may change by its owner's doing only.
func runCommThread(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	const deposits, packets, chores = 40, 40, 20
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rt := newIdleRuntime(2, mode, tw)
	cost := cluster.KNLDefaults()
	cost.RegionalLockHold = 470 // a wide target for the depositor: a quarter of the idle pass
	var n0, n1 Node
	var w0, w1 Worker
	var out idleOutcome
	var res resumes
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d ", rt.Env.Now())+fmt.Sprintf(format, args...))
	}
	due, ringOn, done := false, true, 0

	pass := func(p *sim.Proc, from int) bool {
		res.at[from]++
		// A receive that takes MPI_Recv's cost and nothing else completed a
		// probe whose lock and poll an idle pass had paid.
		recv := func(st, src, tag int) (mpi.Message, bool) {
			start := p.Now()
			m, ok := n0.Rank.TryRecvFrom(p, src, tag)
			switch {
			case !ok:
			case p.Now()-start == mpi.DefaultCosts().Recv:
				res.paid[st]++
			default:
				res.polled++
			}
			return m, ok
		}
		worked := false
		switch from {
		case tcOut:
			batch, backlog := n0.Out.Take(p, 4)
			for _, ev := range batch {
				n0.Send(p, 1, tagData, 32, ev, backlog)
				logf("sent %d", ev.Kind)
				worked = true
			}
			n0.Out.Recycle(batch)
			fallthrough
		case tcData:
			for i := 0; i < 2; i++ {
				m, ok := recv(tcData, mpi.AnySource, tagData)
				if !ok {
					break
				}
				n0.TraceRecv(p, m, i)
				logf("data %v", m.Payload)
				worked = true
			}
			fallthrough
		case tcRing:
			if ringOn {
				if m, ok := recv(tcRing, 1, tagRing); ok {
					logf("ring %v", m.Payload)
					worked = true
				}
			}
			fallthrough
		case tcChore:
			if due {
				due = false
				p.Advance(cost.EventOverhead)
				done++
				ringOn = done%3 != 1
				logf("chore %d", done)
				worked = true
			}
		}
		return worked
	}

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
		if mode != written {
			n0.CommLoop(p, pass)
			return
		}
		for n0.WorkersExited < 1 {
			if !pass(p, 0) {
				p.Advance(cost.IdlePoll)
			}
		}
	},
		TakeProbe(&n0.Out),
		RecvProbe(mpi.AnySource, tagData),
		RecvProbe(1, tagRing).If(func() bool { return ringOn }),
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
		if ticks++; ticks < chores {
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
	a, c, wt := n0.Rank.LockStats()
	out.Locks = [3][3]int64{lockStats(&n0.OutMu), {a, c, int64(wt)}}
	out.Trace = buf.Bytes()
	return out, rt.Env.Counters(), res
}

// TestIdleMatchesPollingLoop: a thread idling through the pass machine —
// a worker through Idle, a dedicated MPI thread through CommLoop — is, to
// the threads that share its locks, to its peers, in its statistics and in
// the trace, the thread that makes every pass itself, while the kernel
// events of its idle passes stop costing a process switch. LiteralIdle,
// the reference the engine-level matrix compares against
// (internal/run.TestSteppedIdleMatchesLiteral), is that loop too.
func TestIdleMatchesPollingLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		run    func(*testing.T, idleMode) (idleOutcome, sim.Counters, resumes)
		starts []int // stages a pass must have been handed back at the start of
		paid   []int // receive stages a pass must have been handed back inside
	}{
		{"worker", runIdleWorker, []int{twInbox, twSide, twChore}, nil},
		// The ring probe starts the instant the data probe lets go of the
		// rank lock, so it alone can never find the lock taken at its start.
		{"comm", runCommThread, []int{tcOut, tcData, tcChore}, []int{tcData, tcRing}},
	} {
		t.Run(c.name, func(t *testing.T) {
			loop, lk, _ := c.run(t, written)
			lit, tk, lres := c.run(t, literal)
			steps, sk, res := c.run(t, stepped)
			if !reflect.DeepEqual(loop, steps) {
				loop.Trace, steps.Trace = nil, nil
				t.Errorf("polling loop\n%+v\nstepped\n%+v", loop, steps)
			}
			if !reflect.DeepEqual(loop, lit) || lk != tk {
				t.Errorf("LiteralIdle is not the polling loop: %+v against the loop's %+v", tk, lk)
			}
			for _, l := range loop.Locks[:2] {
				if l[1] == 0 || l[2] == 0 {
					t.Errorf("lock statistics %v: the test does not make both locks contended", loop.Locks)
				}
			}
			if lk.Dispatches != sk.Dispatches || lk.Steps != 0 || sk.ProcSwitches+sk.Steps != lk.ProcSwitches {
				t.Errorf("polling loop %+v, stepped %+v: same dispatches, each step in place of one switch", lk, sk)
			}
			if 3*sk.Steps < lk.ProcSwitches {
				t.Errorf("%d steps in place of the loop's %d process switches; idle passes are not running in the kernel", sk.Steps, lk.ProcSwitches)
			}
			for _, st := range c.starts {
				if res.at[st] <= res.paid[st] {
					t.Errorf("no pass was handed back at the start of stage %d (%+v)", st, res)
				}
			}
			for _, st := range c.paid {
				if res.paid[st] == 0 {
					t.Errorf("no pass was handed back inside the receive of stage %d (%+v)", st, res)
				}
			}
			if len(c.paid) > 0 && res.polled == 0 {
				t.Errorf("no receive was made by an ordinary poll (%+v)", res)
			}
			if lres.paid != [4]int{} || lres.at[0] == 0 || lres.at != [4]int{lres.at[0]} {
				t.Errorf("LiteralIdle resumed passes %+v: want every one at stage 0 and no probe paid for", lres)
			}
		})
	}
}

// idleWorker builds a one-node runtime whose one worker runs body, with an
// idle pass of a mailbox take and a predicate.
func idleWorker(w *Worker, quiet func() bool, body func(p *sim.Proc)) *Runtime {
	rt := newIdleRuntime(1, stepped, nil)
	n := &Node{}
	rt.AddNode(n, cluster.KNLDefaults())
	rt.AddWorker(w, n, body)
	w.IdlePass(func() bool { return false }, func() {}, TakeProbe(&w.Inbox), QuietProbe(quiet))
	return rt
}

// idleCommNode builds a one-node runtime whose comm thread runs body —
// its worker never starts, so the loop test holds — with an idle pass of
// an outbox take, two receive probes and a predicate.
func idleCommNode(n *Node, quiet func() bool, body func(p *sim.Proc)) *Runtime {
	rt := newIdleRuntime(1, stepped, nil)
	rt.AddNode(n, cluster.KNLDefaults())
	rt.AddComm(n, body,
		TakeProbe(&n.Out), RecvProbe(mpi.AnySource, tagData), RecvProbe(mpi.AnySource, tagRing), QuietProbe(quiet))
	return rt
}

// TestIdleAllocatesNothing: the step is bound once per worker, so going
// idle and coming back costs no allocation.
func TestIdleAllocatesNothing(t *testing.T) {
	var w Worker
	passes := 0
	rt := idleWorker(&w, func() bool { passes++; return passes%5 != 0 }, func(p *sim.Proc) {
		if avg := testing.AllocsPerRun(200, func() { w.Idle(p) }); avg != 0 {
			t.Errorf("%v allocations per Idle of five passes, want 0", avg)
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if passes < 1000 {
		t.Errorf("%d idle passes in 200 runs of five: Idle does not idle", passes)
	}
}

// TestCommIdleAllocatesNothing: nor does a comm thread's.
func TestCommIdleAllocatesNothing(t *testing.T) {
	var n Node
	passes := 0
	rt := idleCommNode(&n, func() bool { passes++; return passes%5 != 0 }, func(p *sim.Proc) {
		if avg := testing.AllocsPerRun(200, func() { n.comm.idle(p) }); avg != 0 {
			t.Errorf("%v allocations per idle episode of five passes, want 0", avg)
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if passes < 1000 {
		t.Errorf("%d idle passes in 200 episodes of five: the thread does not idle", passes)
	}
}

// BenchmarkIdlePass: one idle comm pass (six kernel events) per op, run
// by the thread itself and as Poll steps.
func BenchmarkIdlePass(b *testing.B) {
	for _, mode := range []idleMode{written, stepped} {
		name := "loop"
		if mode == stepped {
			name = "steps"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var n Node
			passes := 0
			quiet := func() bool { passes++; return passes <= b.N }
			rt := idleCommNode(&n, quiet, func(p *sim.Proc) {
				if mode == stepped {
					n.comm.idle(p)
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
