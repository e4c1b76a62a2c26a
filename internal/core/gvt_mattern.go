package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Mattern's asynchronous GVT (paper Algorithm 2) and Controlled
// Asynchronous GVT (Algorithm 3).
//
// Two kinds of control message are used, as in the paper: a shared-memory
// structure per node (nodeCM) that workers accumulate into, and an MPI
// token (gvtToken) that circulates in a ring of nodes. A round has three
// token phases: A accumulates in-flight white-message counts (repeating
// laps until the cumulative total is zero), B reduces each node's minimum
// unprocessed time and minimum red send stamp, and C broadcasts the new
// GVT (plus, for CA-GVT, the next round's synchronization flag).
//
// Workers keep processing events throughout — the asynchrony that wins on
// computation-dominated workloads. CA-GVT adds three synchronization
// points (Algorithm 3 lines 4, 14 and 30) when the observed efficiency of
// the previous round fell below the threshold; the first and last align
// the whole cluster (node barrier + MPI barrier), the middle one aligns
// each node's workers (the cross-node alignment there is provided by the
// token protocol itself, which avoids a circular wait with token B).

// Node CM phases.
const (
	phOpen      = iota // accepting red transitions for the current round
	phWhiteDone        // no white messages remain in flight cluster-wide
	phGVTReady         // the round's GVT is published
)

// Worker-side phases.
const (
	wIdle = iota // white, counting passes until the next round
	wRed         // flushed counters, waiting for phWhiteDone
	wDone        // contributed minima, waiting for phGVTReady
)

// Ring token phases.
const (
	tokWhite  = iota // phase A: accumulate white counts
	tokReduce        // phase B: reduce minima
	tokGVT           // phase C: broadcast GVT
)

// gvtToken is the inter-node control message.
type gvtToken struct {
	phase  int
	count  int64   // cumulative white sent-received (phase A)
	minLVT float64 // phase B
	minRed float64 // phase B
	gvt    float64 // phase C
	sync   bool    // phase C: CA-GVT's SyncFlag for the next round
}

// wireSize is the 48-byte frame of the padded struct a real
// implementation would send.
func (t *gvtToken) wireSize() int { return 48 }

// nodeCM is the node-level shared control message.
type nodeCM struct {
	mu      sim.Mutex
	workers int

	phase       int
	roundStart  bool  // some worker initiated the round
	redCount    int   // workers that turned red
	whiteDelta  int64 // accumulated sent−received; carries across rounds
	minLVT      float64
	minRed      float64
	contributed int
	gvt         float64
	acked       int
	syncCur     bool // this round runs with CA barriers
	syncNext    bool // decided by the master at round end
}

func (cm *nodeCM) init(n *node, workers int) {
	cm.workers = workers
	cm.mu.Name = "nodeCM"
	cm.mu.HoldCost = n.Cost.RegionalLockHold
	cm.minLVT = vtime.Inf
	cm.minRed = vtime.Inf
}

// reset prepares the CM for the next round. whiteDelta deliberately
// carries over: white receipts recorded while a worker was still red
// belong to the next epoch's accounting.
func (cm *nodeCM) reset() {
	cm.phase = phOpen
	cm.roundStart = false
	cm.redCount = 0
	cm.minLVT = vtime.Inf
	cm.minRed = vtime.Inf
	cm.contributed = 0
	cm.acked = 0
	cm.syncCur = cm.syncNext
}

// takeDelta atomically removes the node's accumulated white delta.
func (n *node) takeDelta(p *sim.Proc) int64 {
	cm := &n.cm
	cm.mu.LockFor(p, n.Cost.GVTBookkeeping)
	d := cm.whiteDelta
	cm.whiteDelta = 0
	cm.mu.Unlock(p)
	return d
}

// flushOldReceipts pays receipts of the draining epoch recorded since the
// flip into the CM (Algorithm 2's in-flight white accounting).
func (w *worker) flushOldReceipts() {
	if w.recvC[w.drainSlot] == 0 {
		return
	}
	cm := &w.node.cm
	cm.mu.LockFor(w.Proc, w.node.Cost.GVTBookkeeping)
	cm.whiteDelta -= w.recvC[w.drainSlot]
	w.node.Touch()
	cm.mu.Unlock(w.Proc)
	w.recvC[w.drainSlot] = 0
}

// matternPoll is the worker-side state machine, one step per main-loop
// pass that gvtQuiet does not absorb. Unlike barrierPoll it never blocks
// (except at CA sync points), so event processing continues while the GVT
// computes in the background.
func (w *worker) matternPoll() {
	cm := &w.node.cm
	p := w.Proc
	cost := &w.node.Cost
	ca := w.eng.cfg.GVT == GVTControlled
	isCommLeader := w.leadsComm()

	switch w.mstate {
	case wIdle:
		// gvtQuiet let the pass through: a round is due or under way.
		cm.roundStart = true
		w.node.Touch()
		w.passes = 0
		w.SetPhase(trace.PhaseGVT)
		// syncCur is set by CA's efficiency control.
		if cm.syncCur {
			w.node.syncPoint(p, isCommLeader, true, w)
		}
		slot := uint8(w.epoch & 3)
		cm.mu.LockFor(p, cost.GVTBookkeeping)
		cm.whiteDelta += w.sentC[slot] - w.recvC[slot]
		cm.redCount++
		w.node.Touch()
		cm.mu.Unlock(p)
		w.sentC[slot], w.recvC[slot] = 0, 0
		w.drainSlot = slot
		w.epoch++
		w.minRed = vtime.Inf
		w.mstate = wRed

	case wRed:
		w.flushOldReceipts()
		if cm.phase < phWhiteDone {
			return
		}
		w.SetPhase(trace.PhaseGVT)
		if cm.syncCur {
			// Algorithm 3 line 14: align before contributing minima.
			w.node.syncPoint(p, isCommLeader, false, w)
		}
		cm.mu.LockFor(p, cost.GVTBookkeeping)
		if lm := w.localMin(); lm < cm.minLVT {
			cm.minLVT = lm
		}
		if w.minRed < cm.minRed {
			cm.minRed = w.minRed
		}
		cm.contributed++
		w.node.Touch()
		cm.mu.Unlock(p)
		w.mstate = wDone

	case wDone:
		w.flushOldReceipts()
		if cm.phase < phGVTReady {
			return
		}
		w.SetPhase(trace.PhaseGVT)
		// No flip back: the round's new epoch is the stable epoch until
		// the next round drains it.
		w.applyGVT(cm.gvt)
		if cm.syncCur {
			w.St.SyncRounds++
			// Algorithm 3 line 30: align after fossil collection.
			w.node.syncPoint(p, isCommLeader, true, w)
		}
		if ca {
			// Algorithm 3 line 31: computeEfficiency() every round — the
			// overhead that costs CA-GVT a few percent against pure
			// Mattern on computation-dominated models.
			p.Advance(cost.EffCompute)
		}
		cm.mu.Lock(p)
		cm.acked++
		w.node.Touch()
		cm.mu.Unlock(p)
		w.mstate = wIdle
	}
}

// masterState drives node 0's side of the ring protocol.
type masterState int

const (
	msIdle masterState = iota
	msWaitA
	msWaitContrib
	msWaitB
	msWaitC
	msCleanup
)

// allRed reports whether the round is open and every worker has turned
// red for it — the precondition for collecting the node's white delta.
func (cm *nodeCM) allRed() bool { return cm.phase == phOpen && cm.redCount == cm.workers }

// matternCommPoll advances the comm role of Mattern/CA-GVT by one step.
// It is called by the dedicated MPI thread, or by worker 0 in
// combined/shared modes (where the worker-side poll handles sync points),
// from stGVT. An idle pass can also hand back further in (from stRing or
// stGVTTail, see commProbes): what comes before the resume point was
// evaluated when the pass got there, found nothing to do and — the
// sync-point conditions can turn true while the ring is probed — must not
// be evaluated again (past stGVTTail, that is all of it).
func (n *node) matternCommPoll(p *sim.Proc, from int) bool {
	worked := false
	switch from {
	case stGVT:
		// The dedicated comm thread participates in the sync points of CA's
		// synchronous rounds.
		worked = n.commSyncPoints(p)
		fallthrough
	case stRing:
		if n.ID == 0 {
			worked = n.masterPoll(p) || worked
		} else {
			worked = n.slavePoll(p) || worked
		}
		fallthrough
	case stGVTTail:
		if n.cleanupDue() {
			n.cm.reset()
			n.master = msIdle
			n.syncDone = [3]bool{}
			n.Touch()
			worked = true
		}
	}
	return worked
}

// syncDue reports whether the dedicated comm thread has yet to join sync
// point k (0, 1, 2) of a synchronous round that has reached it. A worker
// carrying the comm role meets the sync points in its own poll
// (matternPoll), so for it none is ever due here.
func (n *node) syncDue(k int) bool {
	cm := &n.cm
	if n.eng.cfg.Comm != CommDedicated || !cm.syncCur || n.syncDone[k] {
		return false
	}
	switch k {
	case 0:
		return cm.roundStart && cm.phase == phOpen
	case 1:
		return cm.phase >= phWhiteDone
	default:
		return cm.phase >= phGVTReady
	}
}

// commSyncPoints takes the dedicated comm thread through whichever of a
// synchronous round's three sync points are due (the middle one is
// node-local, see syncPoint).
func (n *node) commSyncPoints(p *sim.Proc) bool {
	worked := false
	for k := range n.syncDone {
		if n.syncDue(k) {
			n.syncPoint(p, true, k != 1, nil)
			n.syncDone[k] = true
			worked = true
		}
	}
	return worked
}

// cleanupDue reports whether the round is over on this node: all workers
// acknowledged and every token obligation of this node is met. A held
// token can only be the NEXT round's white token (arriving early from a
// fast master), so it does not block cleanup — it is serviced right after
// the reset.
func (n *node) cleanupDue() bool {
	cm := &n.cm
	return cm.phase == phGVTReady && cm.acked == cm.workers &&
		(n.heldToken == nil || n.heldToken.phase == tokWhite) &&
		(n.ID != 0 || n.master == msCleanup) &&
		(!cm.syncCur || n.eng.cfg.Comm != CommDedicated || n.syncDone[2])
}

// sendToken passes tok to the next node of the ring. The reliable
// transport under a fault plan delivers it exactly once, however often the
// fabric loses it.
func (n *node) sendToken(p *sim.Proc, tok *gvtToken) {
	n.Rank.SendRing(p, tagToken, tok.wireSize(), tok)
}

// masterPoll runs node 0's ring-master duties.
func (n *node) masterPoll(p *sim.Proc) bool {
	cm := &n.cm
	eng := n.eng
	ca := eng.cfg.GVT == GVTControlled
	single := eng.World.Size() == 1

	switch n.master {
	case msIdle:
		if !cm.allRed() {
			return false
		}
		if single {
			// No ring needed: the node CM is the global control message.
			if cm.whiteDelta != 0 {
				return false // white messages still in flight
			}
			cm.phase = phWhiteDone
			n.master = msWaitContrib
			n.Touch()
			return true
		}
		tok := &gvtToken{phase: tokWhite, count: n.takeDelta(p), minLVT: vtime.Inf, minRed: vtime.Inf}
		n.sendToken(p, tok)
		n.master = msWaitA
		return true

	case msWaitA:
		tok := n.recvToken(p)
		if tok == nil {
			return false
		}
		tok.count += n.takeDelta(p)
		if tok.count == 0 {
			cm.phase = phWhiteDone
			n.master = msWaitContrib
			n.Touch()
		} else if tok.count < 0 {
			panic(fmt.Sprintf("core: negative in-flight white count %d", tok.count))
		} else {
			// Messages still in flight: another lap collects the receipts.
			n.sendToken(p, tok)
		}
		return true

	case msWaitContrib:
		if cm.contributed != cm.workers {
			return false
		}
		if single {
			n.publishGVT(p, ca, vtime.Min(cm.minLVT, cm.minRed))
			n.master = msCleanup
			return true
		}
		tok := &gvtToken{phase: tokReduce, minLVT: cm.minLVT, minRed: cm.minRed}
		n.sendToken(p, tok)
		n.master = msWaitB
		return true

	case msWaitB:
		tok := n.recvToken(p)
		if tok == nil {
			return false
		}
		n.publishGVT(p, ca, vtime.Min(tok.minLVT, tok.minRed))
		out := &gvtToken{phase: tokGVT, gvt: cm.gvt, sync: cm.syncNext}
		n.sendToken(p, out)
		n.master = msWaitC
		return true

	case msWaitC:
		if n.recvToken(p) == nil {
			return false
		}
		n.master = msCleanup
		return true
	}
	return false
}

// recvToken takes the token from the previous node of the ring, or
// returns nil when none has arrived.
func (n *node) recvToken(p *sim.Proc) *gvtToken {
	m, ok := n.Rank.TryRecvRing(p, tagToken)
	if !ok {
		return nil
	}
	return m.Payload.(*gvtToken)
}

// publishGVT finalizes a round at the master: computes CA's SyncFlag from
// the observed efficiency (Algorithm 3 lines 20–24) and publishes the GVT.
func (n *node) publishGVT(p *sim.Proc, ca bool, gvt float64) {
	cm := &n.cm
	eng := n.eng
	eff := eng.clusterEfficiency()
	sync := false
	if ca {
		p.Advance(n.Cost.EffCompute)
		sync = eff < eng.cfg.CAThreshold
	}
	cm.gvt = gvt
	cm.syncNext = sync
	cm.phase = phGVTReady
	n.Touch()
	eng.onRoundComplete(gvt, cm.syncCur, eff)
}

// slavePoll runs a non-master node's ring duties: fold local state into
// tokens as their preconditions are met, then forward them.
func (n *node) slavePoll(p *sim.Proc) bool {
	cm := &n.cm
	tok := n.heldToken
	n.heldToken = nil
	if tok == nil {
		if tok = n.recvToken(p); tok == nil {
			return false
		}
	}
	switch tok.phase {
	case tokWhite:
		// Hold until this node has reset from the previous round (the
		// master can race ahead and start the next round's token before a
		// slow node finished cleaning up) AND every local worker has turned
		// red for the new round — otherwise the token would collect a stale
		// or incomplete delta.
		if !cm.allRed() {
			n.heldToken = tok
			return false
		}
		tok.count += n.takeDelta(p)
		n.sendToken(p, tok)
		return true
	case tokReduce:
		cm.phase = phWhiteDone
		n.Touch()
		if cm.contributed != cm.workers {
			n.heldToken = tok // hold until every local worker contributed
			return true       // phase change counts as progress
		}
		if cm.minLVT < tok.minLVT {
			tok.minLVT = cm.minLVT
		}
		if cm.minRed < tok.minRed {
			tok.minRed = cm.minRed
		}
		n.sendToken(p, tok)
		return true
	case tokGVT:
		cm.gvt = tok.gvt
		cm.syncNext = tok.sync
		cm.phase = phGVTReady
		n.Touch()
		n.sendToken(p, tok)
		return true
	}
	panic("core: unknown token phase")
}
