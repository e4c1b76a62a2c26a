package core

import (
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/rng"
	"repro/internal/vtime"
)

// histEntry records one processed event together with everything needed to
// undo it: the state snapshots taken just before processing (on snapshot
// entries) and the events it sent.
type histEntry struct {
	ev *event.Event
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
	sent      []*event.Event
}

// lp is one logical process: the shared base plus rollback machinery.
type lp struct {
	pe.LP

	// history holds processed, not-yet-fossil-collected events in
	// ascending stamp order.
	history []histEntry

	// sinceSnap counts processed events since the last snapshot entry.
	sinceSnap int

	// pendingAnti stashes anti-messages that arrived before their
	// positives.
	pendingAnti []*event.Event

	// committed counts this LP's committed events; commitMark is the
	// count at the balancer's last look, so committed-commitMark is the
	// LP's "heat" since then. Both travel with the LP on migration.
	committed  int64
	commitMark int64
}

// lastStamp returns the stamp of the most recent processed event, or the
// zero stamp if none remain in history. Fossil collection only removes
// entries below GVT, and no straggler may arrive below GVT, so the zero
// stamp is a safe floor after fossil collection.
func (l *lp) lastStamp() vtime.Stamp {
	if len(l.history) == 0 {
		return vtime.ZeroStamp
	}
	return l.history[len(l.history)-1].ev.Stamp
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

// findProcessed returns the history index of the event matching anti, or -1.
func (l *lp) findProcessed(anti *event.Event) int {
	for i := range l.history {
		if l.history[i].ev.Matches(anti) {
			return i
		}
	}
	return -1
}

// execCtx is the Context used while processing an event; a worker reuses
// one across events. Send adds what Time Warp needs to the shared
// stamping: a pooled event, its anti-message identity, and the sent list
// a rollback cancels.
type execCtx struct {
	pe.Ctx
	w    *worker
	sent []*event.Event
}

func (c *execCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	// The engine's hottest allocation site: recycle through the node
	// pool instead of allocating per event.
	ev := c.w.node.pool.Get()
	c.LP.Stamp(ev, c.T, dst, delay, kind, data)
	ev.MatchID = c.w.eng.nextMatchID()
	c.sent = append(c.sent, ev)
}

// replayCtx coast-forwards an already-processed event after a partial
// state restore: model effects replay deterministically, but sends are
// suppressed (the original messages are still valid) — only the sequence
// counter advances, keeping subsequent stamps identical.
type replayCtx struct{ pe.Ctx }

func (c *replayCtx) Send(event.LPID, vtime.Time, uint16, []byte) { c.LP.Seq++ }
