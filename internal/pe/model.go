// Package pe is the processing-element runtime both PDES engines run on:
// ROSS's substrate of one PE per simulated thread owning a block of LPs,
// a pending set and a shared-memory mailbox, with remote messages handed
// to a per-node MPI thread. It holds, once, everything the optimistic
// engine (internal/core) and the conservative one (internal/conservative)
// do identically — the model contract, the run skeleton, the LP base and
// its send stamping, the simulated-lock mailbox, the worker idle loop, the
// traced MPI helpers, the phase tracker and per-round recording — as
// structs the engines embed, so the per-event path pays no dynamic
// dispatch for the sharing.
//
// What an engine supplies is synchronisation only: its worker main loop,
// what a delivery does, when an event may be processed and when it
// commits, plus its own message kinds. The rule that keeps the seam
// honest: nothing here branches on which engine is calling, and nothing
// here exists for one engine alone.
package pe

import (
	"repro/internal/event"
	"repro/internal/rng"
	"repro/internal/vtime"
)

// Model is a logical process's behaviour. One instance exists per LP.
// Implementations must be deterministic given the context's RNG and must
// confine all mutable state to what Snapshot/Restore capture.
type Model interface {
	// Init runs before the simulation starts; it seeds initial events via
	// ctx.Send (delays are absolute times here, since Now() is 0).
	Init(ctx Context)
	// OnEvent processes one event. It may examine ev.Kind and ev.Data and
	// send new events with ctx.Send. The engine has already advanced the
	// LP's virtual time to ev's receive time.
	OnEvent(ctx Context, ev *event.Event)
	// Snapshot returns an immutable copy of the model's state.
	Snapshot() any
	// Restore rewinds the model to a state previously returned by Snapshot.
	Restore(snap any)
}

// Context is the API a model uses while handling an event.
type Context interface {
	// Self returns the LP being simulated.
	Self() event.LPID
	// Now returns the LP's current virtual time.
	Now() vtime.Time
	// Send schedules an event for dst at Now()+delay. delay must be >= 0.
	Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte)
	// RNG returns the LP's private random stream (rolled back with state).
	RNG() *rng.Stream
	// NumLPs returns the total LP count.
	NumLPs() int
	// Spin charges the given number of EPG work units of CPU time
	// (one unit ≈ one FLOP).
	Spin(units int)
}

// ModelFactory builds the model for each LP.
type ModelFactory func(lp event.LPID, total int) Model
