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
