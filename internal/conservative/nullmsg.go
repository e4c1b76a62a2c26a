package conservative

import (
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// CMB-style null-message synchronization.
//
// Within a node, workers read each other's live floors directly (the
// kernel is cooperative, so reads are consistent): worker v cannot send
// worker w anything below floorLive(v) + lookahead. Across nodes, the
// comm roles exchange null messages carrying EOT ("earliest output
// time") promises: node s will never again send an event stamped below
// EOT. Promises are computed as (local floors ∧ inbound promises) +
// lookahead, min'ed with anything already queued in the outbox, and
// ratchet monotonically — each exchange raises the bound by at least one
// lookahead, which is the protocol's deadlock-freedom argument. Floors
// beyond the end time clamp to infinity (those events are never
// processed, so they can never generate sends), which caps the null
// traffic needed to shut the run down.

// safeBound computes the stamp bound below which this worker may safely
// process: no event with a smaller stamp can ever arrive.
func (w *worker) safeBound() vtime.Time {
	e := w.eng
	safe := w.node.leastPromise()
	for _, v := range w.node.workers {
		if v == w {
			continue
		}
		if f := e.horizonFloor(v.floorLive()); f != vtime.Inf && f+e.la < safe {
			safe = f + e.la
		}
	}
	return safe
}

// runNullmsg is the worker side of the protocol: a pass drains the inbox
// (stage 0) and processes what the safe bound allows (stage 1). A pass
// that finds nothing ends in Idle, which runs the idle passes that follow
// inside the kernel and names the stage at which one needs this loop
// again.
func (w *worker) runNullmsg(p *sim.Proc) {
	for from := 0; ; {
		worked := from == 0 && w.drainInbox(p)
		from = 0
		safe := w.safeBound()
		if w.processBatch(p, safe) {
			worked = true
		}
		if worked {
			w.SetPhase(trace.PhaseProcessing)
			continue
		}
		// Nothing processable: done for good, or blocked on a promise.
		if w.finished(safe) {
			return
		}
		w.SetPhase(trace.PhaseIdle)
		from = w.Idle(p)
	}
}

// finished is the exit rule: nothing this worker holds lies inside the
// horizon and nothing that does can arrive any more.
func (w *worker) finished(safe vtime.Time) bool {
	return safe > w.eng.end && w.eng.horizonFloor(w.floorLive()) == vtime.Inf
}

// leastPromise is the least EOT promise the node has received, which
// bounds every worker's safeBound from above.
func (n *node) leastPromise() vtime.Time {
	least := vtime.Inf
	for _, c := range n.chanIn { // self entry is pinned to Inf
		least = min(least, c)
	}
	return least
}

// Quiet answers stage 1 of the idle pass, the worker's only StableProbe
// (pe.Thread): it is blocked — the bound lets nothing be processed, and
// the run is not over. A worker with nothing runnable below the least
// promise received, before the end, is blocked whatever its peers'
// floors, which it then leaves unread.
func (w *worker) Quiet(int) bool {
	if c := w.node.leastPromise(); w.runnable(c) != nil || c > w.eng.end {
		if safe := w.safeBound(); w.runnable(safe) != nil || w.finished(safe) {
			return false
		}
	}
	return true
}

// eotPromise computes the EOT bound this node can currently promise its
// peers. Once every local worker has exited the node will never send
// again, unconditionally.
func (n *node) eotPromise() vtime.Time {
	e := n.eng
	if n.WorkersExited == len(n.workers) {
		return vtime.Inf
	}
	b := vtime.Inf
	for _, w := range n.workers {
		if f := e.horizonFloor(w.floorLive()); f < b {
			b = f
		}
	}
	for s, c := range n.chanIn {
		if s == n.ID {
			continue
		}
		if f := e.horizonFloor(c); f < b {
			b = f
		}
	}
	eot := vtime.Inf
	if b != vtime.Inf {
		eot = b + e.la
	}
	// Events already stamped and queued for transmission bound the
	// promise directly (cooperative kernel: a zero-cost peek, so no
	// simulated lock acquisition).
	for _, ev := range n.Out.Items() {
		if ev.Stamp.T < eot {
			eot = ev.Stamp.T
		}
	}
	return eot
}

// sendNulls pushes a fresh EOT promise to every peer whose last promise
// it improves. The promise shares the event tag, so FIFO delivery
// guarantees every event sent before it arrives first.
func (n *node) sendNulls(p *sim.Proc) bool {
	top := &n.eng.cfg.Topology
	if top.Nodes == 1 {
		return false
	}
	eot := n.eotPromise()
	sent := false
	for dst := 0; dst < top.Nodes; dst++ {
		if dst == n.ID || eot <= n.lastEOT[dst] {
			continue
		}
		n.lastEOT[dst] = eot
		m := n.eng.newNull()
		m.EOT = eot
		n.Send(p, dst, tagEvents, nullWireSize, m, 0)
		n.eng.nullMsgs++
		sent = true
	}
	return sent
}

// Quiet answers stNulls, the comm pass's only StableProbe (pe.Thread):
// sendNulls would send nothing, since the promise this node can make
// improves on none it has made.
func (n *node) Quiet(int) bool {
	if n.eng.cfg.Topology.Nodes == 1 {
		return true
	}
	eot := n.eotPromise()
	for dst, last := range n.lastEOT {
		if dst != n.ID && eot > last {
			return false
		}
	}
	return true
}

// The stages of a comm pass under this protocol, matching the probes
// newNode registers for its idle form.
const (
	stOutbox = iota // outbox → wire
	stRecv          // wire → inboxes and promise channels
	stNulls         // fresh promises → wire
)

// Main is the node's comm thread (pe.Thread), commWindow under the window
// protocol. Under this one it pumps events both ways and keeps the promises
// flowing until every local worker is done, then signs off with a final
// infinite promise so peers can finish too.
func (n *node) Main(p *sim.Proc) {
	if n.eng.cfg.Sync == SyncWindow {
		n.commWindow(p)
		return
	}
	n.CommLoop(p, n)
	n.flushEvents(p, 0)
	n.sendNulls(p)
}

// Pass is one comm pass from stage from (pe.CommPass).
func (n *node) Pass(p *sim.Proc, from int) bool {
	worked := false
	switch from {
	case stOutbox:
		worked = n.flushEvents(p, pumpBudget)
		fallthrough
	case stRecv:
		worked = n.recvInbound(p, pumpBudget) || worked
		fallthrough
	case stNulls:
		worked = n.sendNulls(p) || worked
	}
	return worked
}
