// Package pcs is the classic Personal Communication Services benchmark (a
// staple of the Time Warp literature alongside PHOLD): a toroidal grid of
// cellular towers with finite channels, Poisson call arrivals, exponential
// call durations, and in-progress handoffs to neighbouring cells. Blocked
// and dropped calls are the model's engineering metrics.
package pcs

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/pe"
)

// Event kinds.
const (
	// EvNewCall is a fresh call arriving at this tower.
	EvNewCall uint16 = 1
	// EvEndCall completes an in-progress call here.
	EvEndCall uint16 = 2
	// EvHandoff is an in-progress call arriving from a neighbour.
	EvHandoff uint16 = 3
	// EvRelease frees the channel of a call that handed off elsewhere.
	EvRelease uint16 = 4
)

// Params configures the benchmark.
type Params struct {
	GridW, GridH int
	Channels     int
	Interarrival float64 // mean time between fresh calls per tower
	HoldMean     float64 // mean total call duration
	HandoffMean  float64 // mean time until a moving caller crosses cells
}

// Defaults fills zero fields.
func (p *Params) Defaults() {
	if p.Channels == 0 {
		p.Channels = 10
	}
	if p.Interarrival == 0 {
		p.Interarrival = 0.9
	}
	if p.HoldMean == 0 {
		p.HoldMean = 3.0
	}
	if p.HandoffMean == 0 {
		p.HandoffMean = 2.0
	}
}

// Validate reports parameter errors for a given total LP count.
func (p *Params) Validate(totalLPs int) error {
	if p.GridW*p.GridH != totalLPs {
		return fmt.Errorf("pcs: grid %dx%d != %d LPs", p.GridW, p.GridH, totalLPs)
	}
	if p.Channels <= 0 {
		return fmt.Errorf("pcs: non-positive channel count %d", p.Channels)
	}
	return nil
}

// TowerState is the rollback-protected state of one tower.
type TowerState struct {
	Busy      int
	Completed int64
	Blocked   int64 // fresh calls denied
	Dropped   int64 // handoffs denied
}

// Model is one tower.
type Model struct {
	p     *Params
	self  event.LPID
	state TowerState
}

// New returns the model factory.
func New(p Params) pe.ModelFactory {
	p.Defaults()
	var models event.Slab[Model]
	return func(lp event.LPID, total int) pe.Model {
		if lp == 0 {
			if err := p.Validate(total); err != nil {
				panic(err)
			}
		}
		models.First = total // one model per LP, from as few arrays as the slab allows
		m := models.New()
		*m = Model{p: &p, self: lp}
		return m
	}
}

// State returns the tower's metrics.
func (m *Model) State() TowerState { return m.state }

// Init starts the tower's Poisson arrival process.
func (m *Model) Init(ctx pe.Context) {
	ctx.Send(m.self, ctx.RNG().Exp(m.p.Interarrival)+0.01, EvNewCall, nil)
}

// OnEvent handles arrivals, completions, handoffs and releases.
func (m *Model) OnEvent(ctx pe.Context, ev *event.Event) {
	ctx.Spin(2500)
	switch ev.Kind {
	case EvNewCall:
		ctx.Send(m.self, ctx.RNG().Exp(m.p.Interarrival)+0.01, EvNewCall, nil)
		if m.state.Busy >= m.p.Channels {
			m.state.Blocked++
			return
		}
		m.state.Busy++
		m.progress(ctx)
	case EvHandoff:
		if m.state.Busy >= m.p.Channels {
			m.state.Dropped++
			return
		}
		m.state.Busy++
		m.progress(ctx)
	case EvEndCall:
		m.state.Busy--
		m.state.Completed++
	case EvRelease:
		m.state.Busy--
	}
}

// Lookahead is the model's minimum cross-cell delay: every handoff adds
// this constant floor to its exponential draw, so a conservative engine
// may safely use it as the lookahead bound.
const Lookahead = 0.01

// progress schedules either the call's completion here or its handoff.
func (m *Model) progress(ctx pe.Context) {
	remaining := ctx.RNG().Exp(m.p.HoldMean) + 0.01
	toHandoff := ctx.RNG().Exp(m.p.HandoffMean) + Lookahead
	if toHandoff < remaining {
		ctx.Send(m.self, toHandoff, EvRelease, nil)
		ctx.Send(m.neighbour(ctx), toHandoff, EvHandoff, nil)
		return
	}
	ctx.Send(m.self, remaining, EvEndCall, nil)
}

func (m *Model) neighbour(ctx pe.Context) event.LPID {
	w, h := m.p.GridW, m.p.GridH
	x, y := int(m.self)%w, int(m.self)/w
	switch ctx.RNG().Intn(4) {
	case 0:
		x = (x + 1) % w
	case 1:
		x = (x - 1 + w) % w
	case 2:
		y = (y + 1) % h
	default:
		y = (y - 1 + h) % h
	}
	return event.LPID(y*w + x)
}

// Snapshot copies the tower state.
func (m *Model) Snapshot() any { return m.state }

// Restore rewinds the tower state.
func (m *Model) Restore(s any) { m.state = s.(TowerState) }
