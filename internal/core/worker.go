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

	lps []*lp // the LPs it hosts, in a deterministic order

	// freeEntries and freeRecs are the free lists the worker's LPs draw
	// history entries and send records from (newEntry, newRec); the slabs
	// refill them, first with logsPerLP of each per LP.
	freeEntries *histEntry
	freeRecs    *sendRec
	entrySlab   event.Slab[histEntry]
	recSlab     event.Slab[sendRec]

	// exec and replay are the model contexts, reused across events.
	exec   execCtx
	replay replayCtx

	antis []*event.Event // rollback's buffer of cancellations to route, kept between rollbacks

	// Migration state (engine.migEnabled only; migIn is the zero, empty
	// mailbox otherwise). migOut holds orders the planner parked for the
	// next applyGVT; migIn is the mailbox arrived migrations wait in; limbo
	// parks events that arrived ahead of their migrating LP (in arrival
	// order) until it is installed.
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

	// Samadi GVT state (engine.acks only; without it unacked is nil, so
	// unackedMin is +Inf): the acknowledgement mailbox, the send stamps of
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

// init builds w as the next worker of n, hosting lps, listed in list (as
// long, and no longer in capacity: a migrated-in LP appends to it), with
// antis as its rollback buffer and its idle pass in probes (wsGVT+1 long).
func (w *worker) init(n *node, lps []lp, list []*lp, antis []*event.Event, probes []pe.Probe) {
	eng := n.eng
	*w = worker{eng: eng, node: n, lps: list, antis: antis, minRed: vtime.Inf}
	eng.AddWorker(&w.Worker, &n.Node, w)
	w.exec = execCtx{Ctx: pe.Ctx{W: &w.Worker}, w: w}
	w.replay = replayCtx{pe.Ctx{W: &w.Worker}}
	if eng.acks {
		w.unacked = make(map[uint64]float64)
		w.ackIn = pe.NewMailbox[ack](n.mailboxLock("acks", w.Idx), n.Cost.RegionalSend)
		probes[wsAcks] = pe.TakeProbe(&w.ackIn)
	}
	if eng.migEnabled {
		w.migIn = pe.NewMailbox[*migMsg](n.mailboxLock("migs", w.Idx), n.Cost.RegionalSend)
		probes[wsMigs] = pe.StableProbe()
	}
	probes[wsInbox], probes[wsBatch] = pe.TakeProbe(&w.Inbox), pe.StableProbe()
	if w.pumps() {
		n.commProbes(probes[wsComm:wsGVT])
		if !w.leadsRing() {
			clear(probes[wsComm+stGVT : wsGVT])
		}
	}
	probes[wsGVT] = pe.StableProbe()
	w.IdlePass(probes...)
	w.entrySlab.First = logsPerLP * len(lps)
	w.recSlab.First = w.entrySlab.First
	for i := range lps {
		l := &lps[i]
		eng.AddLP(&l.LP)
		list[i] = l
	}
}

// logsPerLP is how many history entries and send records per LP the
// first arrays of a worker's slabs hold: about 670 B per LP, so a job too
// short to fill them (a service's tiny spec) pays little for them, and a
// longer run's slabs double from there. They are allocated at the
// worker's first processed event, not at build: a worker that never
// processes an event costs no log.
const logsPerLP = 6

// newEntry returns a zero history entry from the worker's free list.
func (w *worker) newEntry() *histEntry {
	e := w.freeEntries
	if e == nil {
		return w.entrySlab.New()
	}
	w.freeEntries, e.next = e.next, nil
	return e
}

// newRec returns a zero send record from the worker's free list.
func (w *worker) newRec() *sendRec {
	r := w.freeRecs
	if r == nil {
		return w.recSlab.New()
	}
	w.freeRecs, r.next = r.next, nil
	return r
}

// release returns e and its send records, unlinked from any history, to
// the free lists, keeping no event, snapshot or record.
func (w *worker) release(e *histEntry) {
	for r := e.sent; r != nil; {
		next := r.next
		*r = sendRec{next: w.freeRecs}
		w.freeRecs = r
		r = next
	}
	*e = histEntry{next: w.freeEntries}
	w.freeEntries = e
}

// assertLive panics if ev was recycled while still referenced: Pool.Put
// marks every event it takes back, so the inlined check is one load. The
// kernel's wrapper names the worker whose process panicked.
func assertLive(ev *event.Event, where string) {
	if ev.Freed() {
		panic("core: use-after-recycle: freed event touched in " + where)
	}
}

// hosts returns the record of LP id if this worker hosts it, or nil.
func (w *worker) hosts(id event.LPID) *lp {
	if l := &w.eng.lps[id]; w.eng.routing.Worker(id) == w.Gidx && !l.away {
		return l
	}
	return nil
}

func (w *worker) lpByID(id event.LPID) *lp {
	l := w.hosts(id)
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

// The stages of a main-loop pass, in the order Main runs them. init lists
// what each is when it finds nothing, Quiet answers for those only the
// engine can judge, and Idle names the one Main resumes a pass at.
const (
	wsMigs  = iota                   // arrived LP migrations (balancer runs)
	wsInbox                          // deposited messages
	wsAcks                           // Samadi acknowledgements
	wsBatch                          // a batch of pending events
	wsComm                           // the node's comm stages (wsComm + st*), for a worker carrying the comm role
	wsGVT   = wsComm + stGVTTail + 1 // the worker's side of the GVT algorithm
)

// Quiet answers for the stages of the idle pass only the engine can judge
// (pe.Thread), by ws* constant; the comm stages are the node's. The
// answers are stable: the batch stage reads only this worker's state, and
// a Touch follows every write of another thread to what the others read.
func (w *worker) Quiet(stage int) bool {
	switch stage {
	case wsMigs:
		return w.migIn.Len() == 0
	case wsBatch:
		return !w.capped() && w.drainedToHorizon()
	case wsGVT:
		_, passes := w.idleCredit() // the pass got past wsBatch: drained to the horizon
		return w.gvtQuiet(passes)
	}
	return w.node.Quiet(stage - wsComm)
}

// Main is the worker thread's main loop: drain mailbox, process a batch of
// events, service MPI if this worker carries the comm role, and drive the
// GVT algorithm — until GVT passes the end time. A pass that did none of
// it ends in Idle, which runs the idle passes that follow inside the
// kernel and names the stage at which one needs this loop again.
func (w *worker) Main(p *sim.Proc) {
	pumps, leadsRing := w.pumps(), w.leadsRing()
	for from := 0; !w.Stop(); {
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

// Stop is Main's loop test (pe.Thread): GVT has passed the end time.
func (w *worker) Stop() bool { return w.gvtView > w.eng.cfg.EndTime }

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
	if w.eng.migEnabled && w.hosts(ev.Dst) == nil {
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
	assertLive(ev, "deliver")
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
		if e := l.findProcessed(ev); e != nil {
			// The positive was optimistically processed: roll back to just
			// before it, which re-enqueues it, then annihilate.
			w.rollback(l, e.ev.Stamp, false)
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
	assertLive(ev, "processOne")
	l := w.lpByID(ev.Dst)
	if ev.Stamp.Before(l.lastStamp()) {
		panic(fmt.Sprintf("core: pending straggler leaked to processing: %v behind %v", ev, l.lastStamp()))
	}
	cfg := &w.eng.cfg
	// The event's charges — overhead, state save, the model's Spins — are
	// owed until OnEvent sends or returns and pass in one switch; until
	// then only the LP and its new entry are touched, which no other
	// thread reads.
	w.Owe(w.node.Cost.EventOverhead)
	entry := w.newEntry()
	entry.ev = ev
	if l.sinceSnap == 0 {
		entry.hasSnap = true
		entry.snapping = l.Model.Snapshot()
		entry.snapRNG = l.RNG.Save()
		entry.snapSeq = l.Seq
		w.Owe(w.node.Cost.StateSave)
	}
	l.sinceSnap++
	if l.sinceSnap >= cfg.CheckpointInterval {
		l.sinceSnap = 0
	}
	ctx := &w.exec
	ctx.LP, ctx.T, ctx.tail = &l.LP, ev.Stamp.T, &entry.sent
	l.Model.OnEvent(ctx, ev)
	w.Settle()
	l.push(entry)
	w.uncommitted++
	w.St.Processed++
	for r := entry.sent; r != nil; r = r.next {
		w.route(r.ev)
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
	// first is the earliest entry to undo: the newest ones at or after s.
	var first *histEntry
	popped := 0
	for e := l.newest; e != nil && !e.ev.Stamp.Before(s); e = e.prev {
		first = e
		popped++
	}
	if first == nil {
		return // nothing at or after s
	}

	// Restore LP state to just before the earliest undone event: rewind to
	// the nearest snapshot at or before it, then coast-forward (re-execute
	// with sends suppressed) across the snapshot-less gap. The replayed
	// Spins are owed, and pass with the rollback's own charge.
	base, gap := first, 0
	for !base.hasSnap {
		if base = base.prev; base == nil {
			panic("core: no snapshot found below rollback target")
		}
		gap++
	}
	l.Model.Restore(base.snapping)
	l.RNG.Restore(base.snapRNG)
	l.Seq = base.snapSeq
	re := &w.replay
	re.LP = &l.LP
	for e := base; e != first; e = e.next {
		re.T = e.ev.Stamp.T
		l.Model.OnEvent(re, e.ev)
	}
	// Recompute the snapshot cadence for the truncated history.
	l.sinceSnap = gap
	if l.sinceSnap >= w.eng.cfg.CheckpointInterval {
		l.sinceSnap = 0
	}

	cfg := &w.eng.cfg
	w.Owe(sim.Time(popped) * (w.node.Cost.RollbackPerEvent + w.node.Cost.QueueOp))
	w.Settle()
	w.uncommitted -= popped
	w.St.Rollbacks++
	w.St.RolledBack += int64(popped)
	if straggler {
		w.St.Stragglers++
	} else {
		w.St.AntiRollbck++
	}
	if h := w.eng.hRollbackDepth; h != nil {
		h.Observe(int64(popped))
	}
	if t := cfg.Trace; t != nil {
		t.Rollback(trace.Rollback{
			Worker: uint32(w.Gidx), LP: uint32(l.ID), Anti: !straggler,
			Depth: uint32(popped),
			From:  first.ev.Stamp.T, To: l.newest.ev.Stamp.T,
			AtNanos: int64(w.Proc.Now()),
		})
	}

	// Cut the undone entries off the history, then re-enqueue their
	// events, collect cancellations for what they sent and release them,
	// oldest first. Routing a local anti-message can roll another LP back,
	// so that waits until this LP's books are whole, and the buffer is
	// detached while this rollback reads it: a nested one allocates its
	// own.
	l.newest = first.prev
	if l.newest == nil {
		l.oldest = nil
	} else {
		l.newest.next = nil
	}
	antis := w.antis[:0]
	w.antis = nil
	for e := first; e != nil; {
		next := e.next
		w.Pending.Push(e.ev)
		for r := e.sent; r != nil; r = r.next {
			assertLive(r.ev, "rollback anti-copy")
			antis = append(antis, r.ev.AntiCopyInto(w.node.pool.Get()))
		}
		w.release(e)
		e = next
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
		// Commit every entry below the new GVT (in stamp order), and find
		// the longest committed prefix that leaves the remaining history
		// self-sufficient: the first retained entry, keep, must carry a
		// snapshot, since it may become the coast-forward base for a
		// rollback at or above GVT.
		keep := l.oldest
		for e := l.oldest; e != nil && e.ev.Stamp.T < g; e = e.next {
			if !e.committed {
				w.Commit(&l.LP, e.ev)
				e.committed = true
				l.heat++
				w.uncommitted--
			}
			if e.next == nil || e.next.hasSnap {
				keep = e.next
			}
		}
		freed += int64(w.fossil(l, keep))
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

// fossil frees l's history entries before keep, which are committed: it
// recycles each entry's event and releases the entry with its send
// records, and returns how many it freed. The sent events themselves
// belong to their receivers (they are freed — or already were — by the
// receiver's own fossil collection).
func (w *worker) fossil(l *lp, keep *histEntry) int {
	n := 0
	for e := l.oldest; e != keep; n++ {
		next := e.next
		w.node.pool.Put(e.ev)
		w.release(e)
		e = next
	}
	l.oldest = keep
	if keep == nil {
		// The whole history was freed: the next processed event must carry
		// a snapshot, or a later rollback would find no coast-forward base.
		l.newest, l.sinceSnap = nil, 0
	} else {
		keep.prev = nil
	}
	return n
}

// gvtPoll advances the worker's side of the configured GVT algorithm by
// one main-loop pass. The interval counter advances with processed events
// (see processBatch); idle passes contribute a small fraction so a fully
// drained cluster still reaches its final GVT rounds.
func (w *worker) gvtPoll(worked bool) {
	if worked {
		w.idleRounds = 0
	} else if w.drainedToHorizon() {
		w.IdleEnd(1)
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

// IdleEnd counts n passes that did nothing with nothing left inside the
// horizon, as n calls of idleCredit would, and answers how many more such
// passes keep gvtQuiet true as far as the interval counter goes: any
// number (-1) where gvtQuiet does not read it. As the end of an idle pass
// (pe.Thread) it need not look: the batch stage found the worker drained,
// and only this thread changes that.
func (w *worker) IdleEnd(n int) (quiet int) {
	every := 64 << min(w.idleRounds, 6)                  // idle passes per interval unit
	if first := max(every-w.idlePasses, 1); n >= first { // the pass that credits the next unit
		w.passes += 1 + (n-first)/every
		w.idlePasses = (n - first) % every
	} else {
		w.idlePasses += n
	}
	if w.eng.ring && (w.mstate != wIdle || w.node.cm.phase != phOpen) {
		return -1
	}
	// The passes before the next unit, then every per unit passes may
	// still take under the interval.
	return max(max(every-1-w.idlePasses, 0)+(w.eng.cfg.GVTInterval-w.passes-1)*every, 0)
}

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
