package pe

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Probe is one stage of a thread's pass in the form the stage takes when
// it finds nothing to do. An engine lists a pass as probes, in the order
// its loop runs the stages, and idle passes are stepped through the list
// inside the kernel. A zero Probe is a stage that does nothing on this
// configuration; it keeps the stages that follow at fixed positions.
type Probe struct {
	stage    int // position in the engine's list
	kind     probeKind
	mu       *sim.Mutex  // TakeProbe: the box's lock
	src, tag int         // RecvProbe
	quiet    func() bool // QuietProbe's predicate; TakeProbe: the box is empty
	cond     func() bool
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
	return Probe{kind: probeTake, mu: box.mu, quiet: func() bool { return len(box.items) == 0 }}
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

// QuietProbe stands for a stage only the engine can judge. quiet reports
// whether the stage, run at this instant, would do nothing at all — no
// charge, no kernel event, no state change; false hands the pass back at
// the stage's start. A hand-back at a stage start is always exact, since
// the loop simply runs from there, so quiet may err toward false and
// never toward true. It must change nothing itself.
func QuietProbe(quiet func() bool) Probe { return Probe{kind: probeQuiet, quiet: quiet} }

// If makes the stage conditional: cond is asked at the stage's start, and
// when it answers false the loop's stage would not run, so the probe is
// skipped. Like a QuietProbe's predicate it must change nothing. The loop
// asks it again when the pass is handed back at this stage, so only the
// thread itself may change what a RecvProbe's condition reads.
func (pr Probe) If(cond func() bool) Probe {
	pr.cond = cond
	return pr
}

// pass is the idle-pass machine, owned once by a Node for its dedicated
// MPI thread and once by every Worker: the thread's loop as a probe list
// and where an idle pass stands in it.
type pass struct {
	probes []Probe     // the engine's list less its zero Probes
	stop   func() bool // asked at the top of every pass: true hands it back there; nil: never
	end    func()      // runs as a pass that found nothing ends; nil: nothing to do
	node   *Node
	worker *Worker // the owner, when it is one: its idle passes are traced and charged as such
	proc   *sim.Proc
	at     int             // the probe the pass is at
	sub    uint8           // how far into that probe (sub*)
	step   func() sim.Time // ps.next, bound once: going idle allocates nothing
}

const (
	subStart  uint8 = iota // nothing of the stage has happened
	subHeld                // the lock is held and its entry cost is passing
	subPolled              // (RecvProbe) the poll cost has passed too
	subEnded               // the loop's own pass has ended: only IdlePoll is left
)

func (ps *pass) init(n *Node, w *Worker) {
	ps.node, ps.worker, ps.step = n, w, ps.next
}

// list takes the engine's list of the thread's pass.
func (ps *pass) list(probes []Probe) {
	ps.probes = ps.probes[:0]
	for i, pr := range probes {
		if pr.kind != probeNone {
			pr.stage = i
			ps.probes = append(ps.probes, pr)
		}
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
	p.Poll(ps.step)
	if ps.at == 0 && ps.sub == subStart {
		return 0 // the top of a pass, where the loop's own test stands
	}
	return ps.probes[ps.at].stage
}

// next is idle's Poll step: one call per kernel event of an idle pass.
// Returning -1 leaves at on the probe to resume at.
func (ps *pass) next() sim.Time {
	n, p := ps.node, ps.proc
	if ps.sub != subEnded {
		for ; ps.at < len(ps.probes); ps.at, ps.sub = ps.at+1, subStart {
			pr := &ps.probes[ps.at]
			if ps.sub == subStart {
				if ps.at == 0 && ps.stop != nil && ps.stop() {
					return -1
				}
				if pr.cond != nil && !pr.cond() {
					continue
				}
			}
			switch pr.kind {
			case probeTake:
				if ps.sub == subStart {
					if !pr.quiet() || !pr.mu.TryAcquire(p) {
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
				if !pr.quiet() {
					return -1
				}
			}
		}
		if w := ps.worker; w != nil { // as its loop ends a pass of its own
			w.SetPhase(trace.PhaseIdle)
			w.St.IdleTime += n.Cost.IdlePoll
		}
		if ps.end != nil {
			ps.end()
		}
	}
	ps.at, ps.sub = 0, subStart
	return n.Cost.IdlePoll
}

// CommLoop is the dedicated MPI thread's service loop: pass after pass
// until every worker of the node has exited. pass runs the engine's
// stages from stage from to the last (from 0: all of them) and reports
// whether anything moved; after a pass that moved nothing the thread
// idles through the probes AddComm was given and resumes where they say.
// The loop test, too, is taken only at from 0.
func (n *Node) CommLoop(p *sim.Proc, pass func(p *sim.Proc, from int) (worked bool)) {
	from := 0
	for from > 0 || !n.workersDone() {
		if pass(p, from) {
			from = 0
		} else {
			from = n.comm.idle(p)
		}
	}
}

func (n *Node) workersDone() bool {
	return n.WorkersExited == n.rt.cfg.Topology.WorkersPerNode
}

// IdlePass lists the pass w's main loop makes, each stage as it is when
// it finds nothing to do. stop is the loop's own test, asked at the top
// of a pass; end (which may be nil) is the bookkeeping the loop does for
// a pass in which every stage found nothing.
func (w *Worker) IdlePass(stop func() bool, end func(), probes ...Probe) {
	w.idle.list(probes)
	w.idle.stop, w.idle.end = stop, end
}

// Idle ends a main-loop pass that did nothing: it charges the pass as
// idle time, lets Cost.IdlePoll pass and idles through the probes of
// IdlePass. It returns the stage the loop must resume its next pass at.
func (w *Worker) Idle(p *sim.Proc) (from int) {
	w.St.IdleTime += w.Node.Cost.IdlePoll
	return w.idle.idle(p)
}
