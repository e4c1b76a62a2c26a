package conservative

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Globally constrained moving-window synchronization.
//
// Rounds are cluster-global and lockstep. Each round the cluster first
// drains every in-transit event (outboxes flushed, an allreduce over
// sent−received counts looping until zero), then every worker publishes
// its virtual-time floor, an allreduce-min yields the global minimum
// unprocessed timestamp M, and the next window is H = M + lookahead.
// Workers then process exactly the events with stamps strictly below H:
// any event generated during the round is sent from a time >= M over a
// cross-worker link with delay >= lookahead, so it lands at or beyond H
// and cannot be needed until the next round. The run terminates when M
// passes the end time.

// runWindow is the worker side of the protocol.
func (w *worker) runWindow(p *sim.Proc) {
	n := w.node
	for {
		// Process everything strictly below the current horizon. The
		// first pass has horizon 0 and falls straight into the sync.
		worked := w.drainInbox(p)
		if w.processBatch(p, n.horizon) {
			worked = true
		}
		if worked {
			w.SetPhase(trace.PhaseProcessing)
			continue
		}
		// Horizon exhausted: synchronize. First drain in-transit events
		// cluster-wide (the comm role flushes, receives and allreduces
		// between the two barriers of each iteration).
		w.SetPhase(trace.PhaseGVT)
		for {
			w.drainInbox(p)
			p.Advance(n.Cost.BarrierEntry)
			w.BarrierWait(n.bar1)
			w.BarrierWait(n.bar2)
			if n.transit == 0 {
				break
			}
		}
		// Everything is local now; publish the floor and let the comm
		// role agree on the next window.
		w.drainInbox(p)
		n.floors[w.Idx] = float64(w.eng.horizonFloor(w.floorLive()))
		w.BarrierWait(n.bar1)
		w.BarrierWait(n.bar2)
		w.St.SyncRounds++
		if n.horizon == vtime.Inf {
			return
		}
		w.SetPhase(trace.PhaseProcessing)
	}
}

// commWindow is the comm-role side of the protocol, running the same
// round structure in lockstep with this node's workers.
func (n *node) commWindow(p *sim.Proc) {
	e := n.eng
	for {
		// Transit drain: between the barriers of each iteration, flush
		// the outbox, consume every delivered message and agree
		// cluster-wide on the number still in flight.
		for {
			n.bar1.Wait(p)
			n.flushEvents(p, 0)
			n.recvInbound(p, 0)
			n.transit = n.Rank.AllreduceSum(p, n.evSent-n.evRecv)
			n.bar2.Wait(p)
			if n.transit == 0 {
				break
			}
		}
		// Window agreement: min over local floors, then cluster-wide.
		n.bar1.Wait(p)
		min := vtime.Inf
		for _, f := range n.floors {
			if vtime.Time(f) < min {
				min = vtime.Time(f)
			}
		}
		m := vtime.Time(n.Rank.AllreduceMin(p, float64(min)))
		if m > e.end {
			n.horizon = vtime.Inf
		} else {
			n.horizon = m + e.la
		}
		if n.ID == 0 {
			e.onRound(m, true)
		}
		n.bar2.Wait(p)
		if n.horizon == vtime.Inf {
			return
		}
	}
}
