package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// worker is one Time Warp simulation thread: the shared PE base plus
// the LPs it currently hosts and their rollback, GVT and migration state.
type worker struct {
	pe.Worker
	eng  *Engine
	node *node

	lps  []*lp
	byID map[event.LPID]*lp // lookup only; lps keeps the deterministic order

	// exec and replay are the model contexts, reused across events.
	exec   execCtx
	replay replayCtx

	// sentFree recycles histEntry.sent backing arrays freed at fossil
	// collection and rollback.
	sentFree [][]*event.Event

	antis []*event.Event // rollback's buffer of cancellations to route, kept between rollbacks

	// Migration state (engine.migEnabled only). migOut holds orders the
	// planner parked for the next applyGVT; migIn is the mailbox arrived
	// migrations wait in; limbo parks events that arrived ahead of their
	// migrating LP (in arrival order) until it is installed.
	migOut []migOrder
	migIn  pe.Mailbox[*migMsg]
	limbo  []*event.Event

	// cumulative message counters for Algorithm 1 (all cross-worker
	// messages, anti-messages included).
	msgSent, msgRecv int64

	// Mattern epoch counters (Algorithm 2), generalized: instead of two
	// colors, messages carry the sender's epoch number mod 4 (the epoch
	// increments at every GVT-round flip). Round R drains epoch R-1. Plain
	// white/red alternation is not enough here because round completion is
	// staggered across nodes: a node still finishing round R-2 can receive
	// fresh epoch-(R-1) traffic, which under two colors is
	// indistinguishable from the round's in-flight messages. Live epochs
	// span at most three consecutive values, so mod-4 slots cannot collide.
	sentC, recvC [4]int64
	epoch        uint64
	drainSlot    uint8   // epoch slot being drained by the in-progress round
	minRed       float64 // min stamp among new-epoch sends this round

	// Samadi GVT state: the acknowledgement mailbox, the send stamps of
	// sent-but-unacknowledged messages by ack id, and the ids issued.
	ackIn   pe.Mailbox[ack]
	unacked map[uint64]float64
	ackSeq  uint64

	// uncommitted counts processed events not yet fossil-collected; the
	// engine stops speculating when it reaches Config.MaxUncommitted.
	uncommitted int

	// GVT driver state
	gvtView    float64 // worker's view of the current GVT
	passes     int     // events processed since last GVT round, in batch units
	eventCred  int     // processed events not yet converted to a batch unit
	idlePasses int     // consecutive idle passes while drained
	idleRounds int     // rounds completed while this worker stayed drained
	mstate     int     // Mattern worker phase (wIdle/wRed/wDone)
}

func newWorker(eng *Engine, n *node) *worker {
	w := &worker{eng: eng, node: n, minRed: vtime.Inf, unacked: make(map[uint64]float64)}
	eng.AddWorker(&w.Worker, &n.Node, w.run)
	w.exec = execCtx{Ctx: pe.Ctx{W: &w.Worker}, w: w}
	w.replay = replayCtx{pe.Ctx{W: &w.Worker}}
	w.ackIn = pe.NewMailbox[ack](n.mailboxLock("acks", w.Idx), n.Cost.RegionalSend)
	w.migIn = pe.NewMailbox[*migMsg](n.mailboxLock("migs", w.Idx), n.Cost.RegionalSend)
	w.IdlePass(w.finished, w.creditIdlePass, w.idleProbes()...)
	w.byID = make(map[event.LPID]*lp, eng.cfg.Topology.LPsPerWorker)
	for i := 0; i < eng.cfg.Topology.LPsPerWorker; i++ {
		l := &lp{}
		eng.AddLP(&l.LP)
		w.lps = append(w.lps, l)
		w.byID[l.ID] = l
	}
	return w
}

// assertLive panics if ev was recycled while still referenced (PoolDebug
// only; callers check it to keep the hot path at one bool).
func (w *worker) assertLive(ev *event.Event, where string) {
	if ev.Freed() {
		panic(fmt.Sprintf("core: use-after-recycle: freed event touched in %s at worker %d/%d",
			where, w.node.ID, w.Idx))
	}
}

// takeSentBuf hands processOne a recycled sent-events backing array.
func (w *worker) takeSentBuf() []*event.Event {
	if n := len(w.sentFree); n > 0 {
		b := w.sentFree[n-1]
		w.sentFree[n-1] = nil
		w.sentFree = w.sentFree[:n-1]
		return b
	}
	return nil
}

// sentFreeCap bounds the sent-buffer free list; beyond it, retired
// buffers fall back to the garbage collector.
const sentFreeCap = 256

// putSentBuf retires a histEntry.sent backing array for reuse.
func (w *worker) putSentBuf(b []*event.Event) {
	if cap(b) == 0 || len(w.sentFree) >= sentFreeCap {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = nil
	}
	w.sentFree = append(w.sentFree, b[:0])
}

func (w *worker) lpByID(id event.LPID) *lp {
	l := w.byID[id]
	if l == nil {
		panic(fmt.Sprintf("core: LP %d routed to worker %d/%d which does not host it",
			id, w.node.ID, w.Idx))
	}
	return l
}

// localMin returns the minimum unprocessed timestamp at this worker
// (the GVT "LVT" contribution: the next event this worker could process).
// Limbo events count: they were receive-counted at drain but sit outside
// the pending set until their migrating LP installs.
func (w *worker) localMin() float64 {
	min := vtime.Inf
	if e := w.Pending.Peek(); e != nil {
		min = e.Stamp.T
	}
	for _, ev := range w.limbo {
		if ev.Stamp.T < min {
			min = ev.Stamp.T
		}
	}
	return min
}

// The stages of a main-loop pass, in the order run runs them. idleProbes
// lists what each is when it finds nothing, and Idle names the one run
// resumes a pass at.
const (
	wsMigs  = iota                   // arrived LP migrations (balancer runs)
	wsInbox                          // deposited messages
	wsAcks                           // Samadi acknowledgements
	wsBatch                          // a batch of pending events
	wsComm                           // the node's comm stages (wsComm + st*), for a worker carrying the comm role
	wsGVT   = wsComm + stGVTTail + 1 // the worker's side of the GVT algorithm
)

// idleProbes is the main-loop pass as it is when nothing happens, stage
// for stage (the index of a probe is its ws* constant).
func (w *worker) idleProbes() []pe.Probe {
	pass := make([]pe.Probe, wsGVT+1)
	if w.eng.migEnabled {
		pass[wsMigs] = pe.QuietProbe(func() bool { return w.migIn.Len() == 0 })
	}
	pass[wsInbox] = pe.TakeProbe(&w.Inbox)
	if w.eng.acks {
		pass[wsAcks] = pe.TakeProbe(&w.ackIn)
	}
	pass[wsBatch] = pe.QuietProbe(func() bool { return !w.capped() && w.drainedToHorizon() })
	if w.pumps() {
		comm := w.node.commProbes()
		if !w.leadsRing() {
			comm = comm[:stGVT]
		}
		copy(pass[wsComm:], comm)
	}
	pass[wsGVT] = pe.QuietProbe(func() bool {
		_, passes := w.idleCredit() // the pass got past wsBatch: drained to the horizon
		return w.gvtQuiet(passes)
	})
	return pass
}

// run is the worker thread's main loop: drain mailbox, process a batch of
// events, service MPI if this worker carries the comm role, and drive the
// GVT algorithm — until GVT passes the end time. A pass that did none of
// it ends in Idle, which runs the idle passes that follow inside the
// kernel and names the stage at which one needs this loop again.
func (w *worker) run(p *sim.Proc) {
	pumps, leadsRing := w.pumps(), w.leadsRing()
	for from := 0; !w.finished(); {
		worked := false
		if from <= wsMigs && w.eng.migEnabled && w.drainMigrations() {
			worked = true
		}
		if from <= wsInbox && w.drainInbox() {
			worked = true
		}
		if from <= wsAcks && w.eng.acks && w.drainAcks() {
			worked = true
		}
		if from <= wsBatch && w.processBatch() {
			worked = true
		}
		comm := max(from-wsComm, stOutbox) // the comm stage to resume at; at wsGVT, past the last
		if pumps && w.node.pumpFrom(p, comm) {
			worked = true
		}
		if leadsRing && w.node.matternCommPoll(p, max(comm, stGVT)) {
			worked = true
		}
		if worked {
			w.SetPhase(trace.PhaseProcessing)
		} else {
			w.SetPhase(trace.PhaseIdle)
		}
		w.gvtPoll(worked)
		from = 0
		if !worked {
			from = w.Idle(p)
		}
	}
}

// finished is run's loop test: GVT has passed the end time.
func (w *worker) finished() bool { return w.gvtView > w.eng.cfg.EndTime }

// leadsComm reports whether this worker carries the node's comm role —
// worker 0 where no thread is dedicated to it: it pumps MPI and does the
// GVT algorithm's MPI duties.
func (w *worker) leadsComm() bool { return w.Idx == 0 && w.eng.cfg.Comm != CommDedicated }

// pumps reports whether this worker's pass pumps MPI: the comm leader,
// and in shared mode every worker.
func (w *worker) pumps() bool { return w.leadsComm() || w.eng.cfg.Comm == CommShared }

// leadsRing reports whether this worker's pass includes the comm role of
// a token-based GVT algorithm. A barrier round inlines its comm duties in
// the worker's own round (between the two node barriers, Algorithm 1
// line 12).
func (w *worker) leadsRing() bool { return w.leadsComm() && w.eng.ring }

// drainInbox consumes every deposited message: counts it for GVT
// accounting and delivers it (annihilation, straggler rollback, enqueue).
func (w *worker) drainInbox() bool {
	batch, _ := w.Inbox.Take(w.Proc, 0)
	if len(batch) == 0 {
		return false
	}
	if h := w.eng.hInboxBatch; h != nil {
		h.Observe(int64(len(batch)))
	}
	// Charge the per-message drain cost for the whole batch up front (one
	// kernel transition instead of one per message).
	cost := &w.node.Cost
	w.Proc.Advance(sim.Time(len(batch)) * (cost.InboxDrainPerMsg + cost.QueueOp))
	for _, ev := range batch {
		w.msgRecv++
		w.recvC[uint8(ev.Color)&3]++
		if w.eng.acks && ev.AckID != 0 {
			w.sendAckTo(ev.AckID)
		}
		w.deliver(ev)
	}
	w.Inbox.Recycle(batch)
	return true
}

// deliver applies one received message to its destination LP.
func (w *worker) deliver(ev *event.Event) {
	if ev.Stamp.T < w.gvtView {
		panic(fmt.Sprintf("core: GVT violation: %v arrived at worker %d/%d with GVT %.6g",
			ev, w.node.ID, w.Idx, w.gvtView))
	}
	if w.eng.migEnabled && w.byID[ev.Dst] == nil {
		if w.eng.routing.Worker(ev.Dst) == w.Gidx {
			// The LP is migrating here but has not installed yet: park the
			// event until it does (localMin keeps it observable for GVT).
			w.limbo = append(w.limbo, ev)
			return
		}
		// Stale arrival: the LP moved away while this message was in
		// flight. Forward it as a fresh send toward the current owner
		// (this drain was receive-counted; route re-counts the send side).
		w.route(ev)
		return
	}
	if w.eng.cfg.PoolDebug {
		w.assertLive(ev, "deliver")
	}
	l := w.lpByID(ev.Dst)
	if ev.Anti {
		if pos := w.Pending.RemoveMatching(ev); pos != nil {
			w.St.Annihilated++
			// Both halves of the pair are done: the positive's sender
			// rolled back (dropping its sent-list reference) before the
			// anti existed, and the anti was ours alone.
			w.node.pool.Put(pos)
			w.node.pool.Put(ev)
			return
		}
		if i := l.findProcessed(ev); i >= 0 {
			// The positive was optimistically processed: roll back to just
			// before it, which re-enqueues it, then annihilate.
			w.rollback(l, l.history[i].ev.Stamp, false)
			pos := w.Pending.RemoveMatching(ev)
			if pos == nil {
				panic("core: rolled-back positive vanished before annihilation")
			}
			w.St.Annihilated++
			w.node.pool.Put(pos)
			w.node.pool.Put(ev)
			return
		}
		// Anti overtook its positive: stash until it arrives.
		l.pendingAnti = append(l.pendingAnti, ev)
		return
	}
	if a := l.takeAnti(ev); a != nil {
		w.St.Annihilated++
		w.node.pool.Put(a)
		w.node.pool.Put(ev)
		return
	}
	if ev.Stamp.Before(l.lastStamp()) {
		w.rollback(l, ev.Stamp, true)
	}
	w.Pending.Push(ev)
}

// capped reports whether the uncommitted-event cap stops speculation.
func (w *worker) capped() bool {
	max := w.eng.cfg.MaxUncommitted
	return max > 0 && w.uncommitted >= max
}

// drainedToHorizon reports whether nothing is pending inside the
// simulation end time.
func (w *worker) drainedToHorizon() bool {
	next := w.Pending.Peek()
	return next == nil || next.Stamp.T > w.eng.cfg.EndTime
}

// processBatch executes up to BatchSize pending events with timestamps
// within the simulation end time.
func (w *worker) processBatch() bool {
	cfg := &w.eng.cfg
	n := 0
	// Event-pool pressure works as in ROSS: a full pool requests a GVT
	// round (fossil collection is what frees memory) and stops further
	// speculation — but never refuses the event at the commit horizon, or
	// the worker holding the global minimum would stall GVT itself.
	capped := w.capped()
	if capped {
		w.passes = cfg.GVTInterval
	}
	for i := 0; i < cfg.BatchSize; i++ {
		next := w.Pending.Peek()
		if next == nil || next.Stamp.T > cfg.EndTime {
			break
		}
		if capped && next.Stamp.T > w.gvtView {
			break
		}
		w.processOne(w.Pending.Pop())
		n++
	}
	// The GVT interval counts processed events in batch units (the paper
	// bases the interval "on the number of events processed").
	w.eventCred += n
	for w.eventCred >= cfg.BatchSize {
		w.eventCred -= cfg.BatchSize
		w.passes++
	}
	return n > 0
}

func (w *worker) processOne(ev *event.Event) {
	if w.eng.cfg.PoolDebug {
		w.assertLive(ev, "processOne")
	}
	l := w.lpByID(ev.Dst)
	if ev.Stamp.Before(l.lastStamp()) {
		panic(fmt.Sprintf("core: pending straggler leaked to processing: %v behind %v", ev, l.lastStamp()))
	}
	cfg := &w.eng.cfg
	w.Proc.Advance(w.node.Cost.EventOverhead)
	entry := histEntry{ev: ev}
	if l.sinceSnap == 0 {
		entry.hasSnap = true
		entry.snapping = l.Model.Snapshot()
		entry.snapRNG = l.RNG.Save()
		entry.snapSeq = l.Seq
		w.Proc.Advance(w.node.Cost.StateSave)
	}
	l.sinceSnap++
	if l.sinceSnap >= cfg.CheckpointInterval {
		l.sinceSnap = 0
	}
	ctx := &w.exec
	ctx.LP, ctx.T, ctx.sent = &l.LP, ev.Stamp.T, w.takeSentBuf()
	l.Model.OnEvent(ctx, ev)
	sent := ctx.sent
	ctx.sent = nil
	if len(sent) == 0 {
		// Nothing sent: keep the recycled buffer for the next event so
		// entry.sent stays nil exactly as with fresh allocation.
		w.putSentBuf(sent)
	} else {
		entry.sent = sent
	}
	l.history = append(l.history, entry)
	w.uncommitted++
	w.St.Processed++
	for _, out := range sent {
		w.route(out)
	}
}

// route sends one event (or anti-message) towards its destination,
// charging the class-appropriate cost and doing GVT accounting.
func (w *worker) route(ev *event.Event) {
	cfg := &w.eng.cfg
	top := cfg.Topology
	// Locality is judged from where the message is (this worker) to where
	// the destination LP currently lives — identical to the static
	// Topology.Class until the balancer moves an LP.
	class := w.eng.routing.ClassFrom(w.Gidx, ev.Dst)
	// Color the message with the sender's current epoch (mod 4).
	ev.Color = event.Color(w.epoch & 3)
	switch class {
	case event.Local:
		w.St.SentLocal++
		// Queue insertion is charged here; delivery itself is free of
		// kernel transitions (no transit for self-sends).
		w.Proc.Advance(w.node.Cost.LocalSend + w.node.Cost.QueueOp)
		w.deliver(ev)
		return
	case event.Regional:
		w.St.SentRegion++
	case event.Remote:
		w.St.SentRemote++
	}
	if ev.Anti {
		w.St.AntiSent++
	}
	w.msgSent++
	w.sentC[w.epoch&3]++
	if w.eng.acks {
		ev.AckID = w.registerUnacked(ev.Stamp.T)
	}
	// During a GVT round, new-color ("red") send stamps feed min_red
	// (Algorithm 2 line 4 / paper §3).
	if w.mstate != wIdle && ev.Stamp.T < w.minRed {
		w.minRed = ev.Stamp.T
	}
	if class == event.Regional {
		wi := w.eng.routing.Worker(ev.Dst) % top.WorkersPerNode
		w.node.workers[wi].Inbox.Deposit(w.Proc, ev)
	} else {
		w.node.remoteOut(w.Proc, ev)
	}
}

// rollback undoes every processed event of l with stamp >= s: restores the
// earliest popped snapshot, re-enqueues the undone events and sends
// anti-messages for everything they sent.
func (w *worker) rollback(l *lp, s vtime.Stamp, straggler bool) {
	h := l.history
	idx := len(h)
	for idx > 0 && !h[idx-1].ev.Stamp.Before(s) {
		idx--
	}
	if idx == len(h) {
		return // nothing at or after s
	}
	popped := h[idx:]
	l.history = h[:idx]

	// Restore LP state to just before the earliest undone event: rewind to
	// the nearest snapshot at or before it, then coast-forward (re-execute
	// with sends suppressed) across the snapshot-less gap.
	j := idx
	for j > 0 && !h[j].hasSnap {
		j--
	}
	base := &h[j]
	if !base.hasSnap {
		panic("core: no snapshot found below rollback target")
	}
	l.Model.Restore(base.snapping)
	l.RNG.Restore(base.snapRNG)
	l.Seq = base.snapSeq
	re := &w.replay
	re.LP = &l.LP
	for i := j; i < idx; i++ {
		re.T = h[i].ev.Stamp.T
		l.Model.OnEvent(re, h[i].ev)
	}
	// Recompute the snapshot cadence for the truncated history.
	l.sinceSnap = idx - j
	if l.sinceSnap >= w.eng.cfg.CheckpointInterval {
		l.sinceSnap = 0
	}

	cfg := &w.eng.cfg
	w.Proc.Advance(sim.Time(len(popped)) * (w.node.Cost.RollbackPerEvent + w.node.Cost.QueueOp))
	w.uncommitted -= len(popped)
	w.St.Rollbacks++
	w.St.RolledBack += int64(len(popped))
	if straggler {
		w.St.Stragglers++
	} else {
		w.St.AntiRollbck++
	}
	if h := w.eng.hRollbackDepth; h != nil {
		h.Observe(int64(len(popped)))
	}
	if t := cfg.Trace; t != nil {
		t.Rollback(trace.Rollback{
			Worker: uint32(w.Gidx), LP: uint32(l.ID), Anti: !straggler,
			Depth: uint32(len(popped)),
			From:  popped[0].ev.Stamp.T, To: popped[len(popped)-1].ev.Stamp.T,
			AtNanos: int64(w.Proc.Now()),
		})
	}

	// Re-enqueue the undone events and collect cancellations. Routing a
	// local anti-message can roll another LP back, so the buffer is detached
	// while this rollback reads it: a nested one allocates its own.
	antis := w.antis[:0]
	w.antis = nil
	debug := w.eng.cfg.PoolDebug
	for i := range popped {
		entry := &popped[i]
		w.Pending.Push(entry.ev)
		for _, out := range entry.sent {
			if debug {
				w.assertLive(out, "rollback anti-copy")
			}
			antis = append(antis, out.AntiCopyInto(w.node.pool.Get()))
		}
		w.putSentBuf(entry.sent)
		entry.sent = nil
		entry.snapping = nil
	}
	for _, a := range antis {
		w.route(a)
	}
	clear(antis)
	w.antis = antis[:0]
}

// applyGVT installs a newly computed GVT: fossil-collect every LP's
// history below it and commit those events.
func (w *worker) applyGVT(g float64) {
	var freed int64
	for _, l := range w.lps {
		// Commit every entry below the new GVT (in stamp order).
		cut := 0
		for cut < len(l.history) && l.history[cut].ev.Stamp.T < g {
			entry := &l.history[cut]
			if !entry.committed {
				w.Commit(&l.LP, entry.ev)
				entry.committed = true
				l.committed++
				w.uncommitted--
			}
			cut++
		}
		// Free the longest committed prefix that leaves the remaining
		// history self-sufficient: the first retained entry must carry a
		// snapshot, since it may become the coast-forward base for a
		// rollback at or above GVT.
		free := 0
		for b := cut; b >= 1; b-- {
			if b == len(l.history) || l.history[b].hasSnap {
				free = b
				break
			}
		}
		if free > 0 {
			freed += int64(free)
			// The freed prefix is fully committed: recycle each entry's
			// event and its sent-list backing array. The sent events
			// themselves belong to their receivers (they are freed — or
			// already were — by the receiver's own fossil collection).
			for i := 0; i < free; i++ {
				entry := &l.history[i]
				w.node.pool.Put(entry.ev)
				w.putSentBuf(entry.sent)
				entry.sent = nil
			}
			l.history = append(l.history[:0], l.history[free:]...)
			if len(l.history) == 0 {
				// The whole history was freed: the next processed event
				// must carry a snapshot, or a later rollback would find no
				// coast-forward base.
				l.sinceSnap = 0
			}
		}
		// Stashed anti-messages below GVT can never match anything now.
		for i := 0; i < len(l.pendingAnti); {
			if l.pendingAnti[i].Stamp.T < g {
				w.node.pool.Put(l.pendingAnti[i])
				l.pendingAnti = append(l.pendingAnti[:i], l.pendingAnti[i+1:]...)
			} else {
				i++
			}
		}
	}
	if freed > 0 {
		w.uncommitted -= int(freed)
		w.Proc.Advance(sim.Time(freed) * w.node.Cost.FossilPerEvent)
	}
	w.gvtView = g
	w.St.GVTRounds++
	w.idleRounds++ // reset on the next productive pass
	// Execute planned migrations now: below-g history is committed and
	// fossil-collected, so pack ships pure committed state.
	if len(w.migOut) > 0 {
		w.executeMigrations(g)
	}
}

// gvtPoll advances the worker's side of the configured GVT algorithm by
// one main-loop pass. The interval counter advances with processed events
// (see processBatch); idle passes contribute a small fraction so a fully
// drained cluster still reaches its final GVT rounds.
func (w *worker) gvtPoll(worked bool) {
	if worked {
		w.idleRounds = 0
	} else if w.drainedToHorizon() {
		w.creditIdlePass()
	}
	if w.gvtQuiet(w.passes) {
		return
	}
	if w.eng.ring {
		w.matternPoll()
	} else {
		w.barrierPoll()
	}
}

// idleCredit returns the idle-pass and interval counters as one more idle
// pass leaves them. Idle passes are credited toward the interval only
// when this worker has nothing left inside the horizon — the end-of-run
// state where GVT rounds are the only way to make progress. Transient
// starvation (messages on the way) must not inflate the round cadence,
// and a drained worker whose triggers are not helping (GVT rounds keep
// completing while it stays drained) backs off exponentially so it cannot
// stall the workers that still have events to process.
func (w *worker) idleCredit() (idlePasses, passes int) {
	if w.idlePasses+1 >= 64<<min(w.idleRounds, 6) {
		return 0, w.passes + 1
	}
	return w.idlePasses + 1, w.passes
}

// creditIdlePass counts a pass that did nothing with nothing left inside
// the horizon. As the end of an idle pass it need not look: the batch
// stage found the worker drained, and only this thread changes that.
func (w *worker) creditIdlePass() { w.idlePasses, w.passes = w.idleCredit() }

// gvtQuiet reports whether, with the interval counter at passes, this
// pass leaves the GVT algorithm where it is: no round to start or join,
// and nothing a round in progress is waiting for from this worker.
func (w *worker) gvtQuiet(passes int) bool {
	if !w.eng.ring {
		return passes < w.eng.cfg.GVTInterval && !w.node.gvtReq
	}
	cm := &w.node.cm
	switch w.mstate {
	case wIdle:
		// A previous round still cleaning up, or none due: once any
		// worker initiates a round, the rest join promptly — the round
		// cannot complete until every worker has flushed its counters,
		// and in synchronous CA rounds the first barrier (Algorithm 3
		// line 4) additionally requires everyone.
		return cm.phase != phOpen || (passes < w.eng.cfg.GVTInterval && !cm.roundStart)
	case wRed:
		return w.recvC[w.drainSlot] == 0 && cm.phase < phWhiteDone
	default: // wDone
		return w.recvC[w.drainSlot] == 0 && cm.phase < phGVTReady
	}
}
