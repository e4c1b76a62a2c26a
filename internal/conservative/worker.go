package conservative

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/eventq"
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

	blockedAt uint64 // the node version at which blocked last found the worker blocked

	ctx   wctx
	sendQ []*event.Event
}

func newWorker(n *node) *worker {
	top := &n.eng.cfg.Topology
	w := &worker{
		eng:      n.eng,
		node:     n,
		lps:      make([]pe.LP, top.LPsPerWorker),
		last:     make([]vtime.Stamp, top.LPsPerWorker),
		inboxMin: vtime.Inf,
		holdMin:  vtime.Inf,
		execT:    vtime.Inf,
	}
	n.eng.AddWorker(&w.Worker, &n.Node, w.run)
	for i := range w.lps {
		n.eng.AddLP(&w.lps[i])
	}
	w.ctx = wctx{Ctx: pe.Ctx{W: &w.Worker}, w: w}
	if n.eng.cfg.Sync != SyncWindow {
		w.IdlePass(nil, nil, pe.TakeProbe(&w.Inbox), pe.QuietProbe(w.blocked))
	}
	return w
}

func (w *worker) run(p *sim.Proc) {
	switch w.eng.cfg.Sync {
	case SyncWindow:
		w.runWindow(p)
	default:
		w.runNullmsg(p)
	}
	w.SetPhase(trace.PhaseIdle)
	w.node.touch() // the exit is counted at this instant, and eotPromise reads the count
}

// floorLive is this worker's live virtual-time floor: the smallest stamp
// of any event it holds (pending, undrained inbox, in-hand drain batch,
// or the event being processed). Peers read it — cooperatively, so
// without a lock — to bound what this worker might still send. Whatever
// changes it touches the node.
func (w *worker) floorLive() vtime.Time {
	f := eventq.MinStamp(w.Pending).T
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

// deposit delivers an event into this worker's inbox (called by peer
// workers on the same node and by the comm role for MPI arrivals).
// Unlocking never yields, so inboxMin moves at the instant of the append.
func (w *worker) deposit(p *sim.Proc, ev *event.Event) {
	w.Inbox.Deposit(p, ev)
	if ev.Stamp.T < w.inboxMin {
		w.inboxMin = ev.Stamp.T
	}
	w.node.touch()
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
	w.node.touch()
	p.Advance(sim.Time(len(batch)) * (w.node.Cost.InboxDrainPerMsg + w.node.Cost.QueueOp))
	for _, ev := range batch {
		w.Pending.Push(ev)
	}
	w.Inbox.Recycle(batch)
	w.holdMin = vtime.Inf
	w.node.touch()
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
// stamp order. Returns whether any event was processed.
func (w *worker) processBatch(p *sim.Proc, bound vtime.Time) bool {
	worked := false
	for i := 0; i < w.eng.cfg.BatchSize; i++ {
		ev := w.runnable(bound)
		if ev == nil {
			break
		}
		// execT covers the event from the moment it leaves the queue
		// until its sends are routed; set it before Pop so the floor
		// never jumps past an in-flight event.
		w.execT = ev.Stamp.T
		w.Pending.Pop()
		w.node.touch()
		p.Advance(w.node.Cost.QueueOp)
		w.processOne(p, ev)
		worked = true
	}
	w.execT = vtime.Inf
	w.node.touch()
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
	p.Advance(w.node.Cost.EventOverhead)
	w.ctx.LP = l
	w.ctx.T = ev.Stamp.T
	l.Model.OnEvent(&w.ctx, ev)
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
		w.node.touch()
		w.St.SentLocal++
	case event.Regional:
		_, wi := top.WorkerOf(ev.Dst)
		w.node.workers[wi].deposit(p, ev)
		w.St.SentRegion++
	default:
		w.node.Out.Deposit(p, ev)
		w.node.touch()
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
