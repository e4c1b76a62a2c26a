package core

import (
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Samadi's GVT (Samadi 1985, discussed in the paper's related work §7):
// every cross-worker message is acknowledged by its receiver, so at any
// instant every in-transit message is covered by its sender's minimum
// unacknowledged send stamp. A GVT round then needs no transit draining at
// all — each worker reports min(next unprocessed event, min unacked send)
// and one reduction yields the GVT. The price is the acknowledgement
// traffic itself ("causing extra communication overhead", §7), which this
// implementation makes measurable against Mattern and Barrier GVT.
//
// The classic "simultaneous reporting problem" does not arise in this
// formulation because a sender keeps covering a message until the ack has
// *arrived* (not merely been sent): for any straggler crossing a report
// cut, either the send predates the sender's report (still unacked, so it
// bounds the report) or it postdates it (then it stems from processing an
// event at or above the reported minimum, inductively at or above GVT).

// ack is one acknowledgement in flight.
type ack struct {
	id        uint64
	dstWorker int // cluster-wide worker index of the original sender
}

// ackWire is the simulated wire size of an acknowledgement message.
const ackWire = 16

// unackedSet tracks a worker's sent-but-unacknowledged messages with
// O(log n) minimum queries (lazy-deletion binary heap).
type unackedSet struct {
	live map[uint64]float64
	heap []unackedEntry
	next uint64 // ack id generator (worker-unique ids composed by caller)
}

type unackedEntry struct {
	t  float64
	id uint64
}

func (s *unackedSet) init() {
	s.live = make(map[uint64]float64)
}

// add registers a newly sent message and returns its ack id (never 0).
func (s *unackedSet) add(base uint64, t float64) uint64 {
	s.next++
	id := base | s.next
	s.live[id] = t
	s.heap = append(s.heap, unackedEntry{t: t, id: id})
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].t <= s.heap[i].t {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
	return id
}

// ack removes id from the set.
func (s *unackedSet) ack(id uint64) {
	delete(s.live, id)
}

// min returns the minimum unacknowledged stamp, or +Inf.
func (s *unackedSet) min() float64 {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if t, ok := s.live[top.id]; ok && t == top.t {
			return top.t
		}
		// Lazily drop dead or stale entries.
		n := len(s.heap) - 1
		s.heap[0] = s.heap[n]
		s.heap = s.heap[:n]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && s.heap[l].t < s.heap[min].t {
				min = l
			}
			if r < n && s.heap[r].t < s.heap[min].t {
				min = r
			}
			if min == i {
				break
			}
			s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
			i = min
		}
	}
	return vtime.Inf
}

// size returns the number of live unacked messages.
func (s *unackedSet) size() int { return len(s.live) }

// samadiEnabled reports whether the engine runs with acknowledgements.
func (e *Engine) samadiEnabled() bool { return e.cfg.GVT == GVTSamadi }

// ackWorkerShift positions the registering worker's global index in the
// high bits of every ack id, so the receiver can route the ack back
// without consulting LP placement.
const ackWorkerShift = 40

// registerUnacked assigns an ack id to an outgoing cross-worker message.
func (w *worker) registerUnacked(ev *event.Event) {
	ev.AckID = w.unacked.add(uint64(w.Gidx)<<ackWorkerShift, ev.Stamp.T)
}

// sendAckTo routes an acknowledgement for id back to the transmitting
// worker. The worker is recovered from the ack id itself (registerUnacked
// folds the registering worker's global index into the high bits): the
// sender LP's static home is wrong once the balancer has moved LPs, and
// the unacked entry lives with the worker that sent, not with the LP.
func (w *worker) sendAckTo(id uint64) {
	src := int(id >> ackWorkerShift)
	a := ack{id: id, dstWorker: src}
	wpn := w.eng.cfg.Topology.WorkersPerNode
	w.Proc.Advance(w.node.Cost.QueueOp)
	if src/wpn != w.node.ID {
		w.node.outAcks.Deposit(w.Proc, a)
		return
	}
	w.node.workers[src%wpn].ackIn.Deposit(w.Proc, a)
}

// drainAcks consumes pending acknowledgements.
func (w *worker) drainAcks() bool {
	batch, _ := w.ackIn.Take(w.Proc, 0)
	if len(batch) == 0 {
		return false
	}
	w.Proc.Advance(sim.Time(len(batch)) * w.node.Cost.InboxDrainPerMsg)
	for _, a := range batch {
		w.unacked.ack(a.id)
	}
	w.ackIn.Recycle(batch)
	return true
}

// samadiPoll drives the worker side of a Samadi GVT round: a single
// node-barrier pair around one cluster reduction — no transit draining.
// Like barrierPoll it runs when a round is due or requested.
func (w *worker) samadiPoll() {
	w.node.gvtReq = true
	w.passes = 0
	n := w.node
	p := w.Proc
	comm := w.leadsComm()
	gvtStart := p.Now()
	w.SetPhase(trace.PhaseGVT)

	n.localMin[w.Idx] = vtime.Min(w.localMin(), w.unacked.min())
	p.Advance(w.node.Cost.BarrierEntry)
	n.barrierWait(p, n.gvtBar, w)
	if comm {
		n.commBarrierFinish(p)
	}
	n.barrierWait(p, n.gvtBar2, w)
	w.applyGVT(n.nodeGVT)
	w.St.GVTTime += p.Now() - gvtStart
}

// commSamadiRound is the dedicated MPI thread's side of a round.
func (n *node) commSamadiRound(p *sim.Proc) {
	n.barrierWait(p, n.gvtBar, nil)
	n.commBarrierFinish(p)
	n.barrierWait(p, n.gvtBar2, nil)
}
