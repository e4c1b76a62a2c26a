package pe

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Probe is one stage of a thread's pass in the form the stage takes when
// it finds nothing to do. An engine lists a pass as probes, in the order
// its loop runs the stages, and idle passes are stepped through the list
// inside the kernel. A zero Probe is a stage that does nothing on this
// configuration; it keeps the stages that follow at fixed positions, which
// are the stages the thread's answers (Thread) are asked by.
type Probe struct {
	stage    int // position in the engine's list
	kind     probeKind
	cond     bool                   // If: the thread's Quiet skips the stage
	mu       *sim.Mutex             // TakeProbe: the box's lock
	box      interface{ Len() int } // TakeProbe
	src, tag int                    // RecvProbe
}

type probeKind uint8

const (
	probeNone  probeKind = iota
	probeTake            // Mailbox.Take
	probeRecv            // mpi.Rank.TryRecvFrom
	probeQuiet           // whatever the engine does there, when it would do nothing
)

// TakeProbe is a Take of box that finds it empty: the lock is held for
// its entry cost (one kernel event) and released, depositors queueing on
// it meanwhile exactly as they do behind a Take. A box with items, or a
// lock someone holds, hands the pass back at the stage's start.
func TakeProbe[T any](box *Mailbox[T]) Probe {
	return Probe{kind: probeTake, mu: box.mu, box: box}
}

// RecvProbe is a TryRecvFrom(src, tag) on the node's rank that matches
// nothing: the rank lock is held while mpi.Costs.LockHold and then
// Costs.Poll pass (two kernel events) and released. A held lock hands the
// pass back at the stage's start. So does a match stashed when the poll
// has elapsed — the fabric delivers while it does — but then the rank
// remembers that this thread has paid lock and poll for (src, tag), and
// the TryRecvFrom the loop makes first at this stage completes that
// receive (mpi.Rank.EndProbe).
func RecvProbe(src, tag int) Probe { return Probe{kind: probeRecv, src: src, tag: tag} }

// StableProbe stands for a stage only the engine can judge, which the
// thread's Quiet answers for: whether the stage, run at this instant,
// would do nothing at all — no charge, no kernel event, no state change;
// false hands the pass back at the stage's start. A hand-back at a stage
// start is always exact, since the loop simply runs from there, so Quiet
// may err toward false and never toward true. It must change nothing
// itself, and once true it stays true until the node's next Touch: see
// plan.
func StableProbe() Probe { return Probe{kind: probeQuiet} }

// If makes the stage conditional: the thread's Quiet is asked at the
// stage's start, and when it answers true the loop's stage would not run,
// so the probe is skipped. The loop asks it again when the pass is handed
// back at this stage, and a parking thread asks it once for all the passes
// it skips, so only the thread itself may change what the answer reads.
func (pr Probe) If() Probe {
	pr.cond = true
	return pr
}

// pass is the idle-pass machine, owned once by a Node for its dedicated
// MPI thread and once by every Worker: the thread's loop as a probe list
// and where an idle pass stands in it.
type pass struct {
	probes []Probe // the engine's list less its zero Probes
	th     Thread  // the owning thread, which answers for its stages
	node   *Node
	worker *Worker // the owner, when it is one: its idle passes are traced and charged as such
	name   string  // the owning thread's
	proc   *sim.Proc
	at     int        // the probe the pass is at
	sub    uint8      // how far into that probe (sub*)
	parks  bool       // a quiet pass may park (plan)
	conds  bool       // a probe is conditional: each park builds the cycle anew
	parked sim.Parked // the quiet pass as the kernel parks it (build)
	skips  bool       // next is taking skipped steps (Skip): every stage is quiet
	cycle  [sim.MaxCycle]sim.Time
	locks  [sim.MaxCycle]*sim.Mutex // what parked.Cycle and Locks hold
}

const (
	subStart  uint8 = iota // nothing of the stage has happened
	subHeld                // the lock is held and its entry cost is passing
	subPolled              // (RecvProbe) the poll cost has passed too
	subEnded               // the loop's own pass has ended: only IdlePoll is left
)

func (ps *pass) init(n *Node, w *Worker, th Thread, name string) {
	ps.node, ps.worker, ps.th, ps.name = n, w, th, name
	ps.parked.Owner = ps
}

// list takes the engine's list of the thread's pass, in place: the pass
// keeps the list's array, less its zero Probes.
func (ps *pass) list(probes []Probe) {
	ps.probes = probes[:0]
	for i, pr := range probes {
		if pr.kind != probeNone {
			pr.stage = i
			ps.probes = append(ps.probes, pr)
		}
	}
	ps.plan()
}

// plan decides whether a quiet pass may park: it may whenever it lists
// probes and IdlePoll passes, since nothing it reads changes unseen. Its
// StableProbes are stable; its conditions and, on a worker, the stop test
// read the thread's own state, and the comm thread's stop test reads what
// a worker's exit Touches. A pass that may park and whose longest cycle
// the kernel cannot hold is refused here, loudly.
func (ps *pass) plan() {
	ps.parks, ps.conds = len(ps.probes) > 0 && ps.node.Cost.IdlePoll > 0, false
	steps := 1 // IdlePoll
	for _, pr := range ps.probes {
		ps.conds = ps.conds || pr.cond
		switch pr.kind {
		case probeTake:
			steps += min(int(pr.mu.HoldCost), 1)
		case probeRecv:
			steps += 2
		}
	}
	switch {
	case !ps.parks:
	case steps > sim.MaxCycle:
		panic(fmt.Sprintf("pe: %s's idle pass is %d kernel events, more than a parked cycle holds (sim.MaxCycle = %d)", ps.name, steps, sim.MaxCycle))
	default:
		ps.build()
	}
}

// build writes the quiet pass down as the kernel parks it, for the answers
// its conditions give now, in the pass's own arrays.
func (ps *pass) build() {
	r := &ps.parked
	r.Cycle, r.Locks = ps.cycle[:0], ps.locks[:0]
	for i := range ps.probes {
		switch pr := &ps.probes[i]; {
		case pr.cond && ps.th.Quiet(pr.stage):
		case pr.kind == probeTake && pr.mu.HoldCost > 0:
			r.Locks, r.Cycle = append(r.Locks, pr.mu), append(r.Cycle, pr.mu.HoldCost)
		case pr.kind == probeTake:
			r.Locks = append(r.Locks, pr.mu)
		case pr.kind == probeRecv:
			r.Locks, r.Cycle = append(r.Locks, ps.node.Rank.ProbeLock()), append(r.Cycle, mpiCosts.LockHold, mpiCosts.Poll)
		}
	}
	r.Cycle = append(r.Cycle, ps.node.Cost.IdlePoll)
}

// again reports whether the pass would find nothing if it started now:
// until the thread parks, a change wakes nothing.
func (ps *pass) again() bool {
	quiet := !ps.th.Stop()
	for i := range ps.probes {
		pr := &ps.probes[i]
		quiet = quiet && (pr.cond && ps.th.Quiet(pr.stage) || pr.kind == probeTake && pr.box.Len() == 0 ||
			pr.kind == probeRecv && !ps.node.Rank.Stashed(pr.src, pr.tag) || pr.kind == probeQuiet && ps.th.Quiet(pr.stage))
	}
	return quiet
}

// Skip applies the passes a parked thread did not take (sim.Skipper), not
// asking the stop test or predicates: what they read may have changed in
// this very dispatch, before its Touch. Boxes and the rank cannot have.
func (ps *pass) Skip(reps uint64, steps int) {
	if w := ps.worker; w != nil {
		w.St.IdleTime += sim.Time(reps) * ps.node.Cost.IdlePoll
	}
	ps.th.IdleEnd(int(reps))
	ps.skips = true
	for ; steps > 0; steps-- {
		if ps.Step() < 0 {
			panic("pe: a skipped idle step found something to do")
		}
	}
	ps.skips = false
}

// recheck wakes the thread if parked and its pass would find something,
// or if it parked without a limit and its end hook now says there is one:
// only the thread, brought up to date, can count it.
func (ps *pass) recheck() {
	if r := &ps.parked; r.Asked() && (!ps.again() || r.Limit == 0 && ps.th.IdleEnd(0) >= 0) {
		r.Wake()
	}
}

// idle ends a pass of the thread's loop that did nothing: Cost.IdlePoll
// passes, and the passes that follow run as Poll steps inside the kernel,
// probe by probe down the list, for as long as they find nothing either —
// every lock acquisition, charge and kernel event where the loop's own
// would fall, and no process switch. It returns at the instant a pass has
// something to do, with the stage the loop must resume it at: the stages
// before from found nothing and must not run again, nor may anything the
// loop evaluates before them. With Runtime.LiteralIdle the thread makes
// every pass itself.
func (ps *pass) idle(p *sim.Proc) (from int) {
	if len(ps.probes) == 0 {
		panic("pe: a thread idles that listed no pass (AddComm, Worker.IdlePass)")
	}
	if ps.node.rt.LiteralIdle {
		p.Advance(ps.node.Cost.IdlePoll)
		return 0
	}
	ps.proc, ps.at, ps.sub = p, 0, subEnded
	p.Poll(ps)
	if ps.at == 0 && ps.sub == subStart {
		return 0 // the top of a pass, where the loop's own test stands
	}
	return ps.probes[ps.at].stage
}

// Step is idle's Poll step (sim.Stepper): one call per kernel event of an
// idle pass. Returning -1 leaves at on the probe to resume at.
func (ps *pass) Step() sim.Time {
	n, p := ps.node, ps.proc
	if ps.sub != subEnded {
		for ; ps.at < len(ps.probes); ps.at, ps.sub = ps.at+1, subStart {
			pr := &ps.probes[ps.at]
			if ps.sub == subStart {
				if ps.at == 0 && !ps.skips && ps.th.Stop() {
					return -1
				}
				if pr.cond && ps.th.Quiet(pr.stage) {
					continue
				}
			}
			switch pr.kind {
			case probeTake:
				if ps.sub == subStart {
					if !ps.skips && pr.box.Len() > 0 || !pr.mu.TryAcquire(p) {
						return -1
					}
					ps.sub = subHeld
					if pr.mu.HoldCost > 0 { // as Mutex.Lock: no entry cost, no kernel event
						return pr.mu.HoldCost
					}
				}
				pr.mu.Unlock(p) // the box is still empty: nothing deposits without the lock
			case probeRecv:
				switch ps.sub {
				case subStart:
					if !n.Rank.TryProbe(p) {
						return -1
					}
					ps.sub = subHeld
					return mpiCosts.LockHold // the rank lock's entry cost, as Rank.lock charges it
				case subHeld:
					ps.sub = subPolled
					return mpiCosts.Poll
				}
				if !n.Rank.EndProbe(p, pr.src, pr.tag) {
					return -1
				}
			case probeQuiet:
				if !ps.skips && !ps.th.Quiet(pr.stage) {
					return -1
				}
			}
		}
		if w := ps.worker; w != nil { // as its loop ends a pass of its own
			w.SetPhase(trace.PhaseIdle)
			w.St.IdleTime += n.Cost.IdlePoll
		}
		quiet := ps.th.IdleEnd(1)
		if ps.parks && quiet != 0 && ps.again() {
			ps.at, ps.sub = 0, subStart
			if ps.conds {
				ps.build()
			}
			ps.parked.Limit = uint64(max(quiet, 0))
			return p.Park(&ps.parked, n.Cost.IdlePoll)
		}
	}
	ps.at, ps.sub = 0, subStart
	return n.Cost.IdlePoll
}

// A CommPass runs the engine's stages of a comm pass from stage from to the
// last (from 0: all of them), reporting whether anything moved.
type CommPass interface {
	Pass(p *sim.Proc, from int) (worked bool)
}

// CommLoop is the dedicated MPI thread's service loop: pass after pass
// until the thread's Stop, which Node answers as every worker of the node
// having exited. After a pass that moved nothing the thread idles through
// the probes AddComm was given and resumes where they say. The loop test,
// too, is taken only at from 0.
func (n *Node) CommLoop(p *sim.Proc, pass CommPass) {
	from := 0
	for from > 0 || !n.comm.th.Stop() {
		if pass.Pass(p, from) {
			from = 0
		} else {
			from = n.comm.idle(p)
		}
	}
}

// IdlePass lists the pass w's main loop makes, each stage as it is when
// it finds nothing to do; the thread AddWorker registered answers for its
// stages, its loop test and its end-of-pass bookkeeping (Thread).
func (w *Worker) IdlePass(probes ...Probe) { w.idle.list(probes) }

// Idle ends a main-loop pass that did nothing: it charges the pass as
// idle time, lets Cost.IdlePoll pass and idles through the probes of
// IdlePass. It returns the stage the loop must resume its next pass at.
func (w *Worker) Idle(p *sim.Proc) (from int) {
	w.St.IdleTime += w.Node.Cost.IdlePoll
	return w.idle.idle(p)
}
