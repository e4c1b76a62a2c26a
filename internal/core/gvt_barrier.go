package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Barrier GVT (paper Algorithm 1, "stop-synchronize-and-go").
//
// Each worker publishes msgCount = sent − received (epoch slot 0 of its
// counters: only Mattern rounds move the epoch), meets the node-level
// pthread barrier, the MPI-responsible participant sums the node counts
// and allreduces them across nodes, and everyone loops until the cluster
// in-transit total is zero. Then local minima are reduced the same way
// into the new GVT. Workers do no event processing inside the round; the
// idle time parked at the barriers is the algorithm's cost (Figure 1).
//
// Samadi's GVT (Engine.acks) is the same round without the drain: every
// in-transit message stays covered by its sender's unacknowledged stamp
// (see gvt_samadi.go), so each worker reduces min(local, unacked) at once.

// barrierPoll is the worker-side driver, called on a main-loop pass that
// finds a round due or requested (gvtQuiet).
func (w *worker) barrierPoll() {
	w.node.gvtReq = true
	w.node.Touch()
	w.passes = 0
	w.barrierWorkerRound()
}

// barrierWorkerRound executes one synchronous GVT round from the worker's
// perspective. The comm role (the dedicated MPI thread, or worker 0 in
// combined/shared modes) performs the MPI reductions between the two node
// barriers of each iteration.
func (w *worker) barrierWorkerRound() {
	n := w.node
	p := w.Proc
	cost := &w.node.Cost
	comm := w.leadsComm()
	gvtStart := p.Now()
	w.SetPhase(trace.PhaseGVT)

	for !w.eng.acks {
		// ReadMessages(): keep receiving so in-transit counts can drain.
		// Migration messages count like events, so they must be drainable
		// inside the round too or the transit total could never hit zero.
		if w.eng.migEnabled {
			w.drainMigrations()
		}
		w.drainInbox()
		n.msgCount[w.Idx] = w.sentC[0] - w.recvC[0]
		p.Advance(cost.BarrierEntry)
		n.barrierWait(p, &n.gvtBar, w)
		if comm {
			n.commBarrierStep(p)
		}
		n.barrierWait(p, &n.gvtBar2, w)
		if n.transit == 0 {
			break
		}
		if comm {
			// Keep remote messages moving or the transit count can never
			// reach zero.
			n.pumpFrom(p, stOutbox)
		}
	}

	// All in-transit messages received or covered: reduce local minima
	// into GVT (the unacked set is empty, +Inf, without acknowledgements).
	n.localMin[w.Idx] = vtime.Min(w.localMin(), w.unackedMin())
	p.Advance(cost.BarrierEntry)
	n.barrierWait(p, &n.gvtBar, w)
	if comm {
		n.commBarrierFinish(p)
	}
	n.barrierWait(p, &n.gvtBar2, w)
	w.applyGVT(n.nodeGVT)
	w.St.GVTTime += p.Now() - gvtStart
}

// commBarrierRound is the dedicated MPI thread's side of a round.
func (n *node) commBarrierRound(p *sim.Proc) {
	for !n.eng.acks {
		n.barrierWait(p, &n.gvtBar, nil)
		n.commBarrierStep(p)
		n.barrierWait(p, &n.gvtBar2, nil)
		if n.transit == 0 {
			break
		}
		n.pumpFrom(p, stOutbox)
	}
	n.barrierWait(p, &n.gvtBar, nil)
	n.commBarrierFinish(p)
	n.barrierWait(p, &n.gvtBar2, nil)
}

// commBarrierStep sums the node's in-transit counts and allreduces them
// across nodes (Algorithm 1 lines 5–7).
func (n *node) commBarrierStep(p *sim.Proc) {
	p.Advance(n.Cost.GVTBookkeeping)
	var sum int64
	for _, c := range n.msgCount {
		sum += c
	}
	n.transit = n.Rank.AllreduceSum(p, sum)
}

// commBarrierFinish reduces node minima into the cluster GVT (lines
// 10–12) and publishes it. It also retires the round request: workers are
// parked at the exit barrier at this point, so no new round can race it.
func (n *node) commBarrierFinish(p *sim.Proc) {
	p.Advance(n.Cost.GVTBookkeeping)
	min := vtime.Inf
	for _, v := range n.localMin {
		if v < min {
			min = v
		}
	}
	n.nodeGVT = n.Rank.AllreduceMin(p, min)
	n.gvtReq = false
	if n.ID == 0 {
		n.eng.onRoundComplete(n.nodeGVT, false, n.eng.clusterEfficiency())
	}
}
