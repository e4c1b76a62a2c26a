package core

import (
	"repro/internal/sim"
	"repro/internal/vtime"
)

// Samadi's GVT (Samadi 1985, discussed in the paper's related work §7):
// every cross-worker message is acknowledged by its receiver, so at any
// instant every in-transit message is covered by its sender's minimum
// unacknowledged send stamp. A GVT round then needs no transit draining at
// all — it is Algorithm 1's round (gvt_barrier.go) in which each worker
// reports min(next unprocessed event, min unacked send) to one reduction.
// The price is the acknowledgement traffic itself ("causing extra
// communication overhead", §7), which this implementation makes measurable
// against Mattern and Barrier GVT. This file holds the acknowledgements
// and the unacked set.
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

// ackWorkerShift positions the registering worker's global index in the
// high bits of every ack id, so the receiver can route the ack back
// without consulting LP placement.
const ackWorkerShift = 40

// registerUnacked covers a cross-worker message sent at stamp t until its
// acknowledgement arrives, and returns the ack id (never 0): the worker's
// global index above ackWorkerShift, its count of registrations below.
func (w *worker) registerUnacked(t float64) uint64 {
	w.ackSeq++
	id := uint64(w.Gidx)<<ackWorkerShift | w.ackSeq
	w.unacked[id] = t
	return id
}

// unackedMin returns the minimum unacknowledged send stamp, or +Inf.
func (w *worker) unackedMin() float64 {
	min := vtime.Inf
	for _, t := range w.unacked {
		if t < min {
			min = t
		}
	}
	return min
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
		delete(w.unacked, a.id)
	}
	w.ackIn.Recycle(batch)
	return true
}
