package conservative

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// worker owns a contiguous LP range. Unlike an optimistic worker it keeps
// no history: an event is committed the moment it is processed, because
// the sync protocol guaranteed safety first.
type worker struct {
	pe.Worker
	eng  *Engine
	node *node

	lps  []pe.LP       // contiguous ids, so LP id indexes from lps[0].ID
	last []vtime.Stamp // per LP: last processed stamp, for the causality check

	inboxMin vtime.Time // min stamp in the inbox; Inf when empty

	// holdMin covers events swapped out of the inbox but not yet pushed
	// into pending; execT covers the event currently being processed
	// (including routing its sends). Both are Inf when idle. Together
	// with pending and inboxMin they make floorLive leak-free: at every
	// kernel yield point, every event this worker holds is accounted for.
	holdMin vtime.Time
	execT   vtime.Time

	ctx   wctx
	sendQ []*event.Event // the event in hand's sends
}

const sendCap = 4 // sends of one event a sendQ holds before it grows

// init builds w as the next worker of n.
func (w *worker) init(n *node, lps []pe.LP, last []vtime.Stamp, sendQ []*event.Event) {
	*w = worker{
		eng:      n.eng,
		node:     n,
		lps:      lps,
		last:     last,
		sendQ:    sendQ,
		inboxMin: vtime.Inf,
		holdMin:  vtime.Inf,
		execT:    vtime.Inf,
	}
	n.eng.AddWorker(&w.Worker, &n.Node, w)
	for i := range w.lps {
		n.eng.AddLP(&w.lps[i])
	}
	w.ctx = wctx{Ctx: pe.Ctx{W: &w.Worker}, w: w}
	if n.eng.cfg.Sync != SyncWindow {
		probes := n.eng.kept.probes.Make(2)
		probes[0], probes[1] = pe.TakeProbe(&w.Inbox), pe.StableProbe()
		w.IdlePass(probes...)
	}
}

// Main is the worker thread (pe.Thread).
func (w *worker) Main(p *sim.Proc) {
	switch w.eng.cfg.Sync {
	case SyncWindow:
		w.runWindow(p)
	default:
		w.runNullmsg(p)
	}
	w.SetPhase(trace.PhaseIdle) // pe counts the exit and Touches, which eotPromise reads
}

// floorLive is this worker's live virtual-time floor: the smallest stamp
// of any event it holds (pending, undrained inbox, in-hand drain batch,
// or the event being processed). Peers read it — cooperatively, so
// without a lock — to bound what this worker might still send. A change
// that can raise it goes through moved.
func (w *worker) floorLive() vtime.Time {
	f := w.Pending.MinStamp().T
	if w.inboxMin < f {
		f = w.inboxMin
	}
	if w.holdMin < f {
		f = w.holdMin
	}
	if w.execT < f {
		f = w.execT
	}
	return f
}

// moved follows a change to what floorLive reads, from the floor old: the
// node's parked threads are asked again only if the floor rose. A floor no
// higher lowers or keeps every bound and promise worked out from it, which
// keeps every parked predicate true.
func (w *worker) moved(old vtime.Time) {
	if w.floorLive() > old {
		w.node.Touch()
	}
}

// deposit delivers an event into this worker's inbox (called by peer
// workers on the same node and by the comm role for MPI arrivals).
// Unlocking never yields, so inboxMin moves at the instant of the append.
func (w *worker) deposit(p *sim.Proc, ev *event.Event) {
	w.Inbox.Deposit(p, ev)
	if ev.Stamp.T < w.inboxMin {
		w.inboxMin = ev.Stamp.T
	}
}

// drainInbox moves inbox events into the pending queue. The in-hand
// batch stays visible to floorLive via holdMin for the whole drain, so
// peer safety bounds never see a gap.
func (w *worker) drainInbox(p *sim.Proc) bool {
	batch, _ := w.Inbox.Take(p, 0)
	w.holdMin, w.inboxMin = w.inboxMin, vtime.Inf
	if len(batch) == 0 {
		w.holdMin = vtime.Inf
		return false
	}
	p.Advance(sim.Time(len(batch)) * (w.node.Cost.InboxDrainPerMsg + w.node.Cost.QueueOp))
	for _, ev := range batch {
		w.Pending.Push(ev)
	}
	w.Inbox.Recycle(batch)
	w.holdMin = vtime.Inf
	return true
}

// runnable returns the pending event processBatch would take next under
// bound, or nil.
func (w *worker) runnable(bound vtime.Time) *event.Event {
	ev := w.Pending.Peek()
	if ev == nil || ev.Stamp.T >= bound || ev.Stamp.T > w.eng.end {
		return nil
	}
	return ev
}

// processBatch processes up to BatchSize pending events with stamps
// strictly below bound (and within the simulation end time), in full
// stamp order. Returns whether any event was processed. A null-message
// bound is renewed after every event: a send lowers the floor of the peer
// it lands with, which may send back one lookahead later.
func (w *worker) processBatch(p *sim.Proc, bound vtime.Time) bool {
	worked := false
	for i := 0; i < w.eng.cfg.BatchSize; i++ {
		if i > 0 && w.eng.cfg.Sync == SyncNullMsg {
			bound = min(bound, w.safeBound())
		}
		ev := w.runnable(bound)
		if ev == nil {
			break
		}
		// execT covers the event from the moment it leaves the queue
		// until its sends are routed; set it before Pop so the floor
		// never jumps past an in-flight event.
		old := w.floorLive()
		w.execT = ev.Stamp.T
		w.Pending.Pop()
		w.moved(old)
		w.Owe(w.node.Cost.QueueOp) // settled with the event's own charges
		w.processOne(p, ev)
		worked = true
	}
	old := w.floorLive()
	w.execT = vtime.Inf
	w.moved(old)
	return worked
}

// processOne runs one event through its LP's model, commits it, routes
// its sends and frees it into this node's pool.
func (w *worker) processOne(p *sim.Proc, ev *event.Event) {
	i := ev.Dst - w.lps[0].ID
	l := &w.lps[i]
	if ev.Stamp.Before(w.last[i]) {
		panic(fmt.Sprintf("conservative: causality violation at LP %d: event %v arrived after %v was processed (sync=%v lookahead=%v)",
			l.ID, ev.Stamp, w.last[i], w.eng.cfg.Sync, w.eng.la))
	}
	w.last[i] = ev.Stamp
	// Overhead and the model's Spins are owed until OnEvent sends or
	// returns, and pass in one switch; meanwhile only the LP and sendQ are
	// touched, which no other thread reads.
	w.Owe(w.node.Cost.EventOverhead)
	w.ctx.LP = l
	w.ctx.T = ev.Stamp.T
	l.Model.OnEvent(&w.ctx, ev)
	w.Settle()
	w.St.Processed++
	w.Commit(l, ev)
	for _, s := range w.sendQ {
		w.route(p, s)
	}
	w.sendQ = w.sendQ[:0]
	w.node.pool.Put(ev)
}

// route delivers one freshly sent event by destination locality.
func (w *worker) route(p *sim.Proc, ev *event.Event) {
	top := &w.eng.cfg.Topology
	switch top.Class(ev.Src, ev.Dst) {
	case event.Local:
		p.Advance(w.node.Cost.LocalSend + w.node.Cost.QueueOp)
		w.Pending.Push(ev)
		w.St.SentLocal++
	case event.Regional:
		_, wi := top.WorkerOf(ev.Dst)
		w.node.workers[wi].deposit(p, ev)
		w.St.SentRegion++
	default:
		w.node.Out.Deposit(p, ev)
		w.St.SentRemote++
	}
}

// wctx is the runtime model context, reused across events.
type wctx struct {
	pe.Ctx
	w *worker
}

// Send adds the lookahead guard to the shared stamping.
func (c *wctx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	c.w.Settle() // as Time Warp's: the pool hands out events when it always did
	ev := c.w.node.pool.Get()
	c.LP.Stamp(ev, c.T, dst, delay, kind, data)
	// Enforce the declared lookahead on cross-worker sends, against the
	// model's exact delay argument (recomputing it from stamps would
	// re-round and spuriously trip on models whose minimum delay IS the
	// lookahead). Same-worker sends are exempt: they land in this
	// worker's own pending queue, which is processed in stamp order
	// regardless.
	eng := c.w.eng
	if delay < eng.la && eng.cfg.Topology.Class(c.LP.ID, dst) != event.Local {
		panic(fmt.Sprintf("conservative: cross-worker send LP %d -> LP %d with delay %g below the declared lookahead %g; the safety bound would be violated — lower Config.Lookahead to the model's true minimum cross-LP delay",
			c.LP.ID, dst, delay, eng.la))
	}
	c.w.sendQ = append(c.w.sendQ, ev)
}
