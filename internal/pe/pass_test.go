package pe

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testThread writes a thread as functions: its body and its answers
// (Thread), quiet by stage. A stage without a function is not quiet; a
// nil stop never stops, and a nil end answers any number.
type testThread struct {
	body  func(*sim.Proc)
	quiet []QuietFunc
	stop  QuietFunc
	end   func(n int) int
}

// QuietFunc is a predicate written as a function.
type QuietFunc func() bool

func (t *testThread) Main(p *sim.Proc) { t.body(p) }
func (t *testThread) Quiet(stage int) bool {
	return stage < len(t.quiet) && t.quiet[stage] != nil && t.quiet[stage]()
}
func (t *testThread) Stop() bool { return t.stop != nil && t.stop() }
func (t *testThread) IdleEnd(n int) int {
	if t.end == nil {
		return -1
	}
	return t.end(n)
}

// passFunc writes a comm pass as a function.
type passFunc func(*sim.Proc, int) bool

func (f passFunc) Pass(p *sim.Proc, from int) bool { return f(p, from) }

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
	// The comm thread's parked cycles as the worker and the timer find
	// them: kernel events and locks, and whether the ring probe was made.
	cycles map[[2]int]bool
}

// newIdleRuntime builds the runtime both scenarios run on.
func newIdleRuntime(nodes int, mode idleMode, tw *trace.Writer) *Runtime {
	rt := &Runtime{LiteralIdle: mode == literal}
	rt.Init(Config{
		Topology: cluster.Topology{Nodes: nodes, WorkersPerNode: 1, LPsPerWorker: 1},
		Trace:    tw,
	}, func(*stats.Run) {})
	return rt
}

// The worker's pass: its inbox, a second mailbox, and a chore that falls
// due on a timer and that no deposit announces; where the pass parks, also
// a budget of quiet passes that its end hook counts down.
const (
	twInbox = iota
	twSide
	twChore
	twBudget
)

// runIdleWorker runs one worker that has nothing of its own to do against
// two depositors, one per mailbox, whose deposits keep landing inside its
// polls, and the timer. Its end hook answers 0, so it never parks: every
// idle pass is stepped.
func runIdleWorker(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	return idleWorkerRun(t, mode, false)
}

// runParkedWorker is runIdleWorker with a pass that parks: the end hook
// counts, and a last stage falls due on its own once it has credited
// budget quiet passes since that stage last ran, which only the park's
// limit can wake the worker for.
func runParkedWorker(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	return idleWorkerRun(t, mode, true)
}

func idleWorkerRun(t *testing.T, mode idleMode, parks bool) (idleOutcome, sim.Counters, resumes) {
	const deposits, chores, budget = 40, 25, 7
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
	credits := 0
	spend := func(p *sim.Proc) bool {
		if !parks || credits < budget {
			return false
		}
		credits = 0
		p.Advance(cost.EventOverhead)
		logf("budget spent")
		return true
	}
	// The end hook; the loop written out here calls it once a pass.
	quiet := func(n int) int {
		out.Quiet, credits = out.Quiet+n, credits+n
		if !parks {
			return 0
		}
		return max(budget-credits, 0)
	}
	// The chore's predicate is stable: the timer Touches.
	th := &testThread{stop: finished, end: quiet, quiet: []QuietFunc{
		twChore:  func() bool { return !due },
		twBudget: func() bool { return credits < budget },
	}}
	th.body = func(p *sim.Proc) {
		for from := 0; !finished(); {
			res.at[from]++
			worked := from <= twInbox && drain(p, &w.Inbox)
			worked = from <= twSide && drain(p, &side) || worked
			worked = from <= twChore && chore(p) || worked
			worked = spend(p) || worked
			from = 0
			if worked {
				w.SetPhase(trace.PhaseProcessing)
				continue
			}
			w.SetPhase(trace.PhaseIdle)
			quiet(1)
			if mode == written {
				w.St.IdleTime += cost.IdlePoll
				p.Advance(cost.IdlePoll)
			} else {
				from = w.Idle(p)
			}
		}
	}
	rt.AddWorker(&w, &n, th)
	probes := []Probe{TakeProbe(&w.Inbox), TakeProbe(&side), StableProbe()}
	if parks {
		probes = append(probes, StableProbe())
	}
	w.IdlePass(probes...)
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
		n.Touch()
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

// runParkedCommThread runs node 0's comm thread of a two-node world
// against a worker of its own node that deposits into the outbox and now
// and then sends for itself, holding the rank lock, a peer whose packets
// land before, during and after the probes' lock-hold + poll windows, and
// the timer. The thread itself flips ringOn, with every chore: what a
// RecvProbe's condition reads may change by its owner's doing only. The
// chore's predicate is stable (the timer Touches), so the thread parks
// between wake-ups, its cycle built for the ring condition's answer at the
// park.
func runParkedCommThread(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	return commThreadRun(t, mode, func(done int) bool { return done%3 != 1 })
}

// runCondCommThread is runParkedCommThread with the ring probe's thread
// answering quiet, so that the stage is skipped, for the first half of
// the chores, and probing it from then on.
func runCondCommThread(t *testing.T, mode idleMode) (idleOutcome, sim.Counters, resumes) {
	return commThreadRun(t, mode, func(done int) bool { return done >= 10 })
}

func commThreadRun(t *testing.T, mode idleMode, ring func(done int) bool) (idleOutcome, sim.Counters, resumes) {
	const deposits, packets, chores = 40, 40, 20
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rt := newIdleRuntime(2, mode, tw)
	cost := cluster.KNLDefaults()
	cost.RegionalLockHold = 470 // a wide target for the depositor: a quarter of the idle pass
	var n0, n1 Node
	var w0, w1 Worker
	var out idleOutcome
	res := resumes{cycles: map[[2]int]bool{}}
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf("%d ", rt.Env.Now())+fmt.Sprintf(format, args...))
	}
	due, done := false, 0
	ringOn := ring(done)
	// sample records the comm thread's parked cycle, which is built for
	// ringOn when it parks; the worker and the timer take samples.
	sample := func() {
		if r := &n0.comm.parked; mode == stepped && r.Asked() {
			res.cycles[[2]int{len(r.Cycle), len(r.Locks)}] = ringOn
		}
	}

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
				ringOn = ring(done)
				logf("chore %d", done)
				worked = true
			}
		}
		return worked
	}

	rt.AddNode(&n0, cost)
	rt.AddWorker(&w0, &n0, &testThread{body: func(p *sim.Proc) {
		// Gaps off the idle pass's period, so deposits and lock grabs land
		// in every phase of it.
		for i := 0; i < deposits; i++ {
			p.Advance(15930 + sim.Time(i%7)*31)
			if i%3 == 0 { // the rank lock, for several idle passes
				n0.Rank.Send(p, 1, mpi.TagUser+9, 16, nil)
				logf("worker sent")
				p.Advance(7370)
			}
			sample()
			n0.Out.Deposit(p, &event.Event{Kind: uint16(i)})
			logf("deposited %d", i)
		}
		p.Advance(100 * sim.Microsecond) // the comm thread outlives all traffic
	}})
	comm := &testThread{stop: n0.Stop, quiet: []QuietFunc{
		tcRing:  func() bool { return !ringOn },
		tcChore: func() bool { return !due },
	}}
	comm.body = func(p *sim.Proc) {
		if mode != written {
			n0.CommLoop(p, passFunc(pass))
			return
		}
		for n0.WorkersExited < 1 {
			if !pass(p, 0) {
				p.Advance(cost.IdlePoll)
			}
		}
	}
	rt.AddComm(&n0, comm, TakeProbe(&n0.Out), RecvProbe(mpi.AnySource, tagData), RecvProbe(1, tagRing).If(), StableProbe())
	rt.AddNode(&n1, cost)
	rt.AddWorker(&w1, &n1, &testThread{body: func(p *sim.Proc) {
		for i := 0; i < packets; i++ {
			p.Advance(11970 + sim.Time(i%11)*53)
			tag := tagData
			if i%4 == 3 {
				tag = tagRing
			}
			n1.Rank.Send(p, 0, tag, 24, i)
		}
	}})
	var tick func()
	ticks := 0
	tick = func() {
		sample()
		due = true
		n0.Touch()
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
// the reference the engine-level parity check compares against
// (internal/run.FuzzEngineParity), is that loop too.
func TestIdleMatchesPollingLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		run    func(*testing.T, idleMode) (idleOutcome, sim.Counters, resumes)
		starts []int // stages a pass must have been handed back at the start of
		paid   []int // receive stages a pass must have been handed back inside
	}{
		{"worker", runIdleWorker, []int{twInbox, twSide, twChore}, nil},
		// Parked between their wake-ups (Skipped > 0). The ring probe starts
		// the instant the data probe lets go of the rank lock, so it alone
		// can never find the lock taken at its start.
		{"worker/parked", runParkedWorker, []int{twInbox, twSide, twChore, twBudget}, nil},
		{"comm/parked", runParkedCommThread, []int{tcOut, tcData, tcChore}, []int{tcData, tcRing}},
		{"comm/conditional/parked", runCondCommThread, []int{tcOut, tcData, tcChore}, []int{tcData, tcRing}},
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
			if lk.Dispatches != sk.Dispatches || lk.Steps != 0 || sk.ProcSwitches+sk.Steps+sk.Chained != lk.ProcSwitches+lk.Chained {
				t.Errorf("polling loop %+v, stepped %+v: same dispatches, each step in place of one switch or chained filing", lk, sk)
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
			if parks := strings.HasSuffix(c.name, "/parked"); parks != (sk.Skipped > 0) || parks && 2*sk.Skipped < sk.Steps {
				t.Errorf("%d of %d steps skipped", sk.Skipped, sk.Steps)
			}
			// A conditional stage the thread answers quiet for is skipped: its
			// lock hold and poll are in no parked cycle built meanwhile.
			var on, off [][2]int
			for k, ring := range res.cycles {
				if ring {
					on = append(on, k)
				} else {
					off = append(off, k)
				}
			}
			if strings.HasPrefix(c.name, "comm/") && (len(on) != 1 || len(off) != 1 || on[0] != [2]int{off[0][0] + 2, off[0][1] + 1}) {
				t.Errorf("parked cycles (kernel events, locks) with the ring probe made %v, skipped %v: want one each, the probe's two events and lock apart", on, off)
			}
		})
	}
}

// idleWorker builds a one-node runtime whose one worker runs body, with an
// idle pass of an outbox take, the probes given and a StableProbe its
// thread answers with quiet. Its IdleEnd answers 0, so the worker never
// parks and steps every idle pass: the answer's stability is never relied
// on.
func idleWorker(w *Worker, n *Node, quiet QuietFunc, body func(p *sim.Proc), probes ...Probe) *Runtime {
	rt := newIdleRuntime(1, stepped, nil)
	rt.AddNode(n, cluster.KNLDefaults())
	stages := make([]QuietFunc, len(probes)+2)
	stages[len(probes)+1] = quiet
	rt.AddWorker(w, n, &testThread{body: body, quiet: stages, end: func(int) int { return 0 }})
	w.IdlePass(append(append([]Probe{TakeProbe(&n.Out)}, probes...), StableProbe())...)
	return rt
}

// idleCommNode builds a one-node runtime whose comm thread runs body —
// its worker never starts, so Node.Stop holds it in the loop — with an
// idle pass of an outbox take, two receive probes and a StableProbe its
// thread answers with quiet.
func idleCommNode(n *Node, quiet QuietFunc, body func(p *sim.Proc)) *Runtime {
	rt := newIdleRuntime(1, stepped, nil)
	rt.AddNode(n, cluster.KNLDefaults())
	rt.AddComm(n, &testThread{body: body, stop: n.Stop, quiet: []QuietFunc{3: quiet}},
		TakeProbe(&n.Out), RecvProbe(mpi.AnySource, tagData), RecvProbe(mpi.AnySource, tagRing), StableProbe())
	return rt
}

// TestIdleAllocatesNothing: the step is bound once per worker, so going
// idle and coming back costs no allocation.
func TestIdleAllocatesNothing(t *testing.T) {
	var w Worker
	var n Node
	passes := 0
	rt := idleWorker(&w, &n, func() bool { passes++; return passes%5 != 0 }, func(p *sim.Proc) {
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

// TestCommIdleAllocatesNothing: nor does a comm thread's, which parks
// after its first quiet pass and is woken by a Touch.
func TestCommIdleAllocatesNothing(t *testing.T) {
	var n Node
	ready, done := false, false
	rt := idleCommNode(&n, func() bool { return !ready }, func(p *sim.Proc) {
		if avg := testing.AllocsPerRun(200, func() { n.comm.idle(p); ready = false }); avg != 0 {
			t.Errorf("%v allocations per idle episode, want 0", avg)
		}
		done = true
	})
	rt.AddProcess("toucher", func(p *sim.Proc) {
		for !done {
			p.Advance(20 * sim.Microsecond) // about ten passes
			ready = true
			n.Touch()
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if k := rt.Env.Counters(); k.Skipped < 200 {
		t.Errorf("%d steps skipped in 200 idle episodes: the thread does not park", k.Skipped)
	}
}

// BenchmarkIdlePass: one idle pass (six kernel events: an outbox take, two
// receive probes and IdlePoll) per op, run by the thread itself (loop), as
// Poll steps of a worker whose IdleEnd keeps it from parking (steps), and
// parked: a comm thread parks after one pass and the others are skipped in
// closed form, until a Touch after b.N passes' worth of virtual time.
func BenchmarkIdlePass(b *testing.B) {
	for _, name := range []string{"loop", "steps", "parked"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var n Node
			passes := 0
			quiet := func() bool { passes++; return passes <= b.N }
			var rt *Runtime
			switch name {
			case "loop":
				rt = idleCommNode(&n, quiet, func(p *sim.Proc) {
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
			case "steps":
				var w Worker
				rt = idleWorker(&w, &n, quiet, func(p *sim.Proc) { w.idle.idle(p) },
					RecvProbe(mpi.AnySource, tagData), RecvProbe(mpi.AnySource, tagRing))
			case "parked":
				rt = idleCommNode(&n, func() bool { return passes == 0 }, func(p *sim.Proc) { n.comm.idle(p) })
				var period sim.Time
				for _, d := range n.comm.parked.Cycle {
					period += d
				}
				rt.Env.After(sim.Time(b.N)*period, func() {
					n.Touch()
					passes = 1
				})
			}
			b.ResetTimer()
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
			if k := rt.Env.Counters(); name == "parked" && k.Skipped+12 < 6*uint64(b.N) { // all but two passes
				b.Fatalf("%d steps skipped in %d passes: the thread does not park", k.Skipped, b.N)
			}
		})
	}
}

// TestPlanRefusesTooLongCycle: a pass that may park and whose cycle the
// kernel cannot hold is refused when it is listed, naming the thread, and
// is not left to Park, which would refuse it silently on every pass.
func TestPlanRefusesTooLongCycle(t *testing.T) {
	var n Node
	rt := newIdleRuntime(1, stepped, nil)
	rt.AddNode(&n, cluster.KNLDefaults())
	probes := []Probe{TakeProbe(&n.Out), StableProbe()}
	for steps := 2; steps+2 <= sim.MaxCycle; steps += 2 { // the take and IdlePoll, then two per receive
		probes = append(probes, RecvProbe(mpi.AnySource, tagData))
	}
	rt.AddComm(&n, &testThread{}, probes...) // exactly sim.MaxCycle: taken
	probes = append(probes, RecvProbe(mpi.AnySource, tagRing).If())
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "n0/comm") || !strings.Contains(msg, "MaxCycle") {
			t.Errorf("one probe too many: recovered %q, want a refusal naming n0/comm", msg)
		}
	}()
	rt.AddComm(&n, &testThread{}, probes...)
}
