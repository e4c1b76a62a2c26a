package pe

import (
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Send puts one data-plane message on the wire and traces it. backlog is
// the depth of the queue it was taken from, after the take.
func (n *Node) Send(p *sim.Proc, dst, tag, size int, payload any, backlog int) {
	n.Rank.Send(p, dst, tag, size, payload)
	if tr := n.rt.cfg.Trace; tr != nil {
		tr.MPISend(trace.MPISend{
			Src: uint16(n.ID), Dst: uint16(dst), Bytes: uint32(size),
			QueueDepth: uint32(backlog), AtNanos: int64(p.Now()),
		})
	}
}

// TraceRecv traces one received data-plane message once the caller has
// delivered it. depth is the depth of the mailbox it went into (0 when it
// went into none).
func (n *Node) TraceRecv(p *sim.Proc, m mpi.Message, depth int) {
	if tr := n.rt.cfg.Trace; tr != nil {
		tr.MPIRecv(trace.MPIRecv{
			Src: uint16(m.Src), Dst: uint16(n.ID), Bytes: uint32(m.Size),
			QueueDepth: uint32(depth), AtNanos: int64(p.Now()),
		})
	}
}

// SetPhase records a worker phase transition (trace.Phase*) in the trace.
// Repeated calls with the current phase are free, so callers mark phases
// unconditionally at the points they begin.
func (w *Worker) SetPhase(ph uint8) {
	if w.phase == ph {
		return
	}
	w.phase = ph
	if tr := w.rt.cfg.Trace; tr != nil {
		tr.Phase(trace.Phase{Worker: uint32(w.Gidx), Phase: ph, AtNanos: int64(w.Proc.Now())})
	}
}

// idleState is where a worker's idle loop stands between two steps.
type idleState uint8

const (
	idleCounted idleState = iota // the engine's loop ran a pass that did nothing
	idleStart                    // the next pass has not begun
	idleHolding                  // the pass holds the inbox lock, which it found free and the box empty
)

// Idle ends a main-loop pass that did nothing: it charges the pass as
// idle time and lets Cost.IdlePoll pass, then runs the passes that follow
// as Poll steps inside the kernel for as long as they find nothing to do
// either, so an idle worker costs the host no process switch per poll. It
// returns at the instant a pass needs the engine's loop, at one of two
// points: at pass start, when the inbox lock is held or the inbox is not
// empty (or the engine supplied no Busy) — the loop body runs from its
// top — or just after the inbox drain found nothing and Busy answered
// true, reported as drained: the loop must then skip that drain, which
// this pass has paid for. Either way every lock acquisition, charge and
// kernel event falls where the loop's own would have.
func (w *Worker) Idle(p *sim.Proc) (drained bool) {
	w.idle = idleCounted
	p.Poll(w.idleStep)
	return w.idle == idleHolding
}

// stepIdle is Idle's Poll step: one call per kernel event of an idle pass.
func (w *Worker) stepIdle() sim.Time {
	switch w.idle {
	case idleStart:
		if w.Busy == nil {
			return -1
		}
		hold, ok := w.Inbox.TryHold(w.Proc)
		if !ok {
			return -1
		}
		w.idle = idleHolding
		if hold > 0 { // as Mutex.Lock: a free lock without entry cost is taken in no time
			return hold
		}
		fallthrough
	case idleHolding:
		w.Inbox.Release(w.Proc)
		if w.Busy() {
			return -1
		}
		w.SetPhase(trace.PhaseIdle)
	}
	w.idle = idleStart
	w.St.IdleTime += w.Node.Cost.IdlePoll
	return w.Node.Cost.IdlePoll
}

// BarrierWait parks the worker at b and attributes the virtual time spent
// there to it.
func (w *Worker) BarrierWait(b *sim.Barrier) {
	start := w.Proc.Now()
	b.Wait(w.Proc)
	w.St.BarrierWait += w.Proc.Now() - start
}

// Commit makes ev, processed by l on this worker, final: it joins the
// LP's checksum chain, the worker's count and the trace.
func (w *Worker) Commit(l *LP, ev *event.Event) {
	s := ev.Stamp
	l.Checksum = l.Checksum.Mix(uint32(l.ID), s.T, s.Src, s.Seq)
	w.St.Committed++
	if tr := w.rt.cfg.Trace; tr != nil {
		tr.Commit(trace.Commit{LP: uint32(l.ID), T: s.T, Src: s.Src, Seq: s.Seq})
	}
}
