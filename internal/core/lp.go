package core

import (
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/rng"
	"repro/internal/vtime"
)

// histEntry records one processed event together with everything needed to
// undo it: the state snapshots taken just before processing (on snapshot
// entries) and the events it sent. Entries and their send records come
// from the worker's free lists (newEntry, newRec) and go back to them when
// a rollback pops the entry or fossil collection frees it; a released
// entry keeps no event, snapshot or record.
type histEntry struct {
	ev *event.Event
	// prev and next link the LP's history, oldest to newest; on the
	// worker's free list next links the free entries.
	prev, next *histEntry
	// sent holds the events ev sent, in send order.
	sent *sendRec
	// hasSnap marks entries preceded by a state snapshot. With
	// CheckpointInterval k, every k-th entry carries one; rollback to a
	// snapshot-less entry coast-forwards from the nearest earlier snapshot.
	hasSnap bool
	// committed marks entries already counted/checksummed at fossil
	// collection but retained because a later rollback may need to
	// coast-forward across them.
	committed bool
	snapping  any       // model snapshot before ev (hasSnap only)
	snapRNG   rng.State // RNG state before ev (hasSnap only)
	snapSeq   uint64    // tie-break sequence counter before ev (hasSnap only)
}

// sendRec is one event a history entry's event sent: a rollback of the
// entry cancels it with an anti-message.
type sendRec struct {
	ev   *event.Event
	next *sendRec
}

// lp is one logical process: the shared base plus rollback machinery.
type lp struct {
	pe.LP

	// oldest and newest end the history: processed, not yet
	// fossil-collected events in ascending stamp order.
	oldest, newest *histEntry

	// sinceSnap counts processed events since the last snapshot entry.
	sinceSnap int

	// pendingAnti stashes anti-messages that arrived before their
	// positives.
	pendingAnti []*event.Event

	// heat counts this LP's committed events since the balancer's last
	// look.
	heat int64

	// planned marks an LP with a move planned or in flight (planBalance to
	// installMigration), away one in flight (migrateOut to
	// installMigration): no worker hosts it.
	planned, away bool
}

// lastStamp returns the stamp of the most recent processed event, or the
// zero stamp if none remain in history. Fossil collection only removes
// entries below GVT, and no straggler may arrive below GVT, so the zero
// stamp is a safe floor after fossil collection.
func (l *lp) lastStamp() vtime.Stamp {
	if l.newest == nil {
		return vtime.ZeroStamp
	}
	return l.newest.ev.Stamp
}

// push appends e, the newest processed event, to the history.
func (l *lp) push(e *histEntry) {
	e.prev = l.newest
	if l.newest == nil {
		l.oldest = e
	} else {
		l.newest.next = e
	}
	l.newest = e
}

// takeAnti removes and returns a stashed anti-message matching pos, if any.
func (l *lp) takeAnti(pos *event.Event) *event.Event {
	for i, a := range l.pendingAnti {
		if a.Matches(pos) {
			l.pendingAnti = append(l.pendingAnti[:i], l.pendingAnti[i+1:]...)
			return a
		}
	}
	return nil
}

// findProcessed returns the history entry of the event matching anti, or
// nil.
func (l *lp) findProcessed(anti *event.Event) *histEntry {
	for e := l.oldest; e != nil; e = e.next {
		if e.ev.Matches(anti) {
			return e
		}
	}
	return nil
}

// execCtx is the Context used while processing an event; a worker reuses
// one across events. Send adds what Time Warp needs to the shared
// stamping: a pooled event, its anti-message identity, and a send record
// at the end of the processed entry's run, which a rollback cancels.
type execCtx struct {
	pe.Ctx
	w    *worker
	tail **sendRec // where the entry's next send record links in
}

func (c *execCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	// The charges owed so far pass first: the node pool, which the other
	// workers' frees fill, hands out events at the instant it always did.
	c.w.Settle()
	// The engine's hottest allocation site: recycle through the node
	// pool instead of allocating per event.
	ev := c.w.node.pool.Get()
	c.LP.Stamp(ev, c.T, dst, delay, kind, data)
	ev.MatchID = c.w.eng.nextMatchID()
	r := c.w.newRec()
	r.ev = ev
	*c.tail = r
	c.tail = &r.next
}

// replayCtx coast-forwards an already-processed event after a partial
// state restore: model effects replay deterministically, but sends are
// suppressed (the original messages are still valid) — only the sequence
// counter advances, keeping subsequent stamps identical.
type replayCtx struct{ pe.Ctx }

func (c *replayCtx) Send(event.LPID, vtime.Time, uint16, []byte) { c.LP.Seq++ }
