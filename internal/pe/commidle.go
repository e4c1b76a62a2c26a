package pe

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Probe is one stage of a dedicated MPI thread's pass in the form the
// stage takes when it finds nothing to move. The engine lists its pass as
// probes, in the order its loop runs the stages, and CommLoop steps idle
// passes through the list inside the kernel. A zero Probe is a stage that
// does nothing on this configuration; it keeps the stages that follow at
// fixed positions.
type Probe struct {
	kind     probeKind
	box      holder
	src, tag int
	quiet    func() bool
	cond     func() bool
}

type probeKind uint8

const (
	probeNone  probeKind = iota
	probeTake            // Mailbox.Take
	probeRecv            // mpi.Rank.TryRecvFrom
	probeQuiet           // whatever the engine does there, when it would do nothing
)

// holder is the part of a Mailbox a probe uses, whatever it holds.
type holder interface {
	TryHold(p *sim.Proc) (hold sim.Time, ok bool)
	Release(p *sim.Proc)
}

// TakeProbe is a Take of box that finds it empty: the lock is held for
// its entry cost (one kernel event) and released. A box with items, or a
// lock someone holds, hands the pass back at the stage's start.
func TakeProbe[T any](box *Mailbox[T]) Probe { return Probe{kind: probeTake, box: box} }

// RecvProbe is a Rank.TryRecvFrom(src, tag) that matches nothing: the
// rank lock is held while mpi.Costs.LockHold and then Costs.Poll pass
// (two kernel events) and released. A held lock hands the pass back at
// the stage's start; a match stashed when the poll has elapsed — the
// fabric delivers while it does — hands it back there, holding the lock
// with the poll paid, and the loop completes that receive (Node.Recv).
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
// skipped. Like a QuietProbe's predicate it must change nothing.
func (pr Probe) If(cond func() bool) Probe {
	pr.cond = cond
	return pr
}

// commIdle is where a node's dedicated MPI thread stands in an idle pass.
type commIdle struct {
	pass  []Probe
	proc  *sim.Proc
	stage int             // the probe the pass is at; len(pass) at the IdlePoll ending it
	sub   uint8           // how far into that probe (sub*)
	step  func() sim.Time // n.stepComm, bound once: going idle allocates nothing
}

const (
	subStart  uint8 = iota // nothing of the stage has happened
	subHeld                // the lock is held and its entry cost is passing
	subPolled              // (RecvProbe) the poll cost has passed too
)

// CommLoop is the dedicated MPI thread's service loop: pass after pass
// until every worker of the node has exited. pass runs the engine's
// stages from stage from to the last (from 0: all of them) and reports
// whether anything moved. After a pass that moved nothing, Cost.IdlePoll
// passes and the passes that follow run as Poll steps inside the kernel,
// probe by probe down the list AddComm was given, for as long as they
// find nothing either — every lock acquisition, charge and kernel event
// where pass's own would fall, and no process switch. The thread is
// resumed at the instant a pass has something to do, in one of two ways:
// at the start of a stage, whose part of pass then runs as ever; or, with
// held, inside that stage's RecvProbe, owning the rank lock with the
// poll paid and a match stashed, so that pass must make its first receive
// there with Node.Recv(…, held). Either way the stages before from found
// nothing and must not run again, nor may anything pass evaluated before
// them — which is why the loop test, too, is taken only at from 0.
func (n *Node) CommLoop(p *sim.Proc, pass func(p *sim.Proc, from int, held bool) (worked bool)) {
	if len(n.comm.pass) == 0 {
		panic("pe: CommLoop on a node whose AddComm listed no pass")
	}
	from, held := 0, false
	for from > 0 || n.workersRunning() {
		if pass(p, from, held) {
			from, held = 0, false
		} else {
			from, held = n.idlePasses(p)
		}
	}
}

// idlePasses ends a pass that moved nothing and runs the idle passes that
// follow, returning where the next one must be resumed.
func (n *Node) idlePasses(p *sim.Proc) (from int, held bool) {
	c := &n.comm
	c.proc, c.stage, c.sub = p, len(c.pass), subStart
	p.Poll(c.step)
	return c.stage, c.sub == subPolled
}

func (n *Node) workersRunning() bool {
	return n.WorkersExited < n.rt.cfg.Topology.WorkersPerNode
}

// Recv is the receive of a comm-pass stage: Rank.TryRecvFrom, or only its
// second half when the idle pass handed back inside this stage's probe.
func (n *Node) Recv(p *sim.Proc, src, tag int, held bool) (mpi.Message, bool) {
	if held {
		return n.Rank.FinishRecv(p, src, tag)
	}
	return n.Rank.TryRecvFrom(p, src, tag)
}

// stepComm is CommLoop's Poll step: one call per kernel event of an idle
// pass. Returning -1 leaves stage and sub at the resume point.
func (n *Node) stepComm() sim.Time {
	c := &n.comm
	p := c.proc
	for ; c.stage < len(c.pass); c.stage, c.sub = c.stage+1, subStart {
		pr := &c.pass[c.stage]
		if c.sub == subStart {
			if c.stage == 0 && !n.workersRunning() {
				return -1
			}
			if pr.cond != nil && !pr.cond() {
				continue
			}
		}
		switch pr.kind {
		case probeTake:
			if c.sub == subStart {
				hold, ok := pr.box.TryHold(p)
				if !ok {
					return -1
				}
				c.sub = subHeld
				if hold > 0 { // as Mutex.Lock: no entry cost, no kernel event
					return hold
				}
			}
			pr.box.Release(p)
		case probeRecv:
			costs := &n.rt.cfg.MPICosts
			switch c.sub {
			case subStart:
				if !n.Rank.TryProbe(p) {
					return -1
				}
				c.sub = subHeld
				if costs.LockHold > 0 {
					return costs.LockHold
				}
				fallthrough
			case subHeld:
				c.sub = subPolled
				return costs.Poll
			}
			if n.Rank.Matches(pr.src, pr.tag) {
				return -1
			}
			n.Rank.EndProbe(p)
		case probeQuiet:
			if !pr.quiet() {
				return -1
			}
		}
	}
	c.stage, c.sub = 0, subStart
	return n.Cost.IdlePoll
}
