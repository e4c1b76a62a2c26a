package pe

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// LP is what every engine keeps per logical process — the same state the
// sequential oracle keeps, so commit checksums line up byte for byte. An
// engine's own LP type embeds it.
type LP struct {
	ID    event.LPID
	Model Model
	RNG   rng.Stream // by value: the LP record holds it, Ctx.RNG lends it

	// Seq is the tie-break sequence number of the last event this LP sent.
	// It is part of the LP's state: an engine that rolls back rewinds it,
	// so re-execution regenerates identical stamps.
	Seq uint64

	// Checksum chains the LP's committed events in commit (stamp) order.
	Checksum stats.Checksum
}

// Stamp fills ev as the LP's next send, issued at virtual time now: the
// stamp (now+delay, lp, seq+1) and the routing fields. This is the one
// place a send is stamped.
func (l *LP) Stamp(ev *event.Event, now vtime.Time, dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	if delay < 0 {
		panic(fmt.Sprintf("pe: negative delay %v from LP %d at t=%v", delay, l.ID, now))
	}
	l.Seq++
	ev.Stamp = vtime.Stamp{T: now + delay, Src: uint32(l.ID), Seq: l.Seq}
	ev.SendTime = now
	ev.Src = l.ID
	ev.Dst = dst
	ev.Kind = kind
	ev.Data = data
}

// Ctx is the model context minus Send: an engine's context embeds it and
// adds the Send its synchronisation needs. It is reused across events
// (one LP's callbacks never overlap on a worker).
type Ctx struct {
	W  *Worker
	LP *LP
	T  vtime.Time // the LP's current virtual time
}

func (c *Ctx) Self() event.LPID { return c.LP.ID }
func (c *Ctx) Now() vtime.Time  { return c.T }
func (c *Ctx) RNG() *rng.Stream { return &c.LP.RNG }
func (c *Ctx) NumLPs() int      { return len(c.W.rt.lps) }
func (c *Ctx) Spin(units int)   { c.W.Owe(c.W.Node.Cost.EPGCost(units)) } // the engine settles it

// seedCtx is the context of Model.Init: virtual time is zero, no CPU time
// passes, and a send lands directly in the destination worker's pending
// set — initial conditions, present before any thread runs, exactly as
// the sequential oracle seeds them. Seed events come from one slab for
// the whole run (Runtime.seeds), not from the node pools, whose counts
// stay those of the run itself.
type seedCtx struct{ Ctx }

func (c *seedCtx) Spin(int) {}

func (c *seedCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	rt := c.W.rt
	ev := rt.seeds.New()
	c.LP.Stamp(ev, 0, dst, delay, kind, data)
	rt.workers[rt.cfg.Topology.GlobalWorkerOf(dst)].Pending.Push(ev)
}
