// Package epidemic is a stochastic SIR (susceptible/infected/recovered)
// epidemic over a toroidal grid of regions, one region per LP. Infected
// regions update their local dynamics on periodic ticks and occasionally
// send infectious travellers to grid neighbours — a spatially coupled
// workload whose neighbour-only, bursty communication contrasts with
// PHOLD's uniform traffic.
package epidemic

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/vtime"
)

// Event kinds.
const (
	// EvTick is a region's periodic local dynamics update.
	EvTick uint16 = 1
	// EvTravel is the arrival of infectious travellers.
	EvTravel uint16 = 2
)

// Lookahead is the model's minimum cross-region delay: every travel
// event adds this constant floor to its exponential draw, so a
// conservative engine may safely use it as the lookahead bound.
const Lookahead = 0.2

// Params configures the epidemic.
type Params struct {
	GridW, GridH int // grid dimensions; GridW*GridH must equal the LP count
	Population   int // people per region
	Seeds        int // initially infected people in region 0
	TickEvery    vtime.Time
	BetaLocal    float64 // local infection pressure per tick
	GammaRecov   float64 // recovery fraction per tick
	TravelProb   float64 // chance an infected region emits travellers per tick
}

// Defaults fills zero fields with a standard parameterization.
func (p *Params) Defaults() {
	if p.Population == 0 {
		p.Population = 1000
	}
	if p.Seeds == 0 {
		p.Seeds = 10
	}
	if p.TickEvery == 0 {
		p.TickEvery = 1.0
	}
	if p.BetaLocal == 0 {
		p.BetaLocal = 0.45
	}
	if p.GammaRecov == 0 {
		p.GammaRecov = 0.20
	}
	if p.TravelProb == 0 {
		p.TravelProb = 0.30
	}
}

// Validate reports parameter errors for a given total LP count.
func (p *Params) Validate(totalLPs int) error {
	if p.GridW <= 0 || p.GridH <= 0 {
		return fmt.Errorf("epidemic: non-positive grid %dx%d", p.GridW, p.GridH)
	}
	if p.GridW*p.GridH != totalLPs {
		return fmt.Errorf("epidemic: grid %dx%d=%d regions != %d LPs",
			p.GridW, p.GridH, p.GridW*p.GridH, totalLPs)
	}
	if p.Seeds > p.Population {
		return fmt.Errorf("epidemic: %d seeds > population %d", p.Seeds, p.Population)
	}
	return nil
}

// Region is one grid cell's SIR state.
type Region struct {
	S, I, R int
}

// Model is the per-LP epidemic model.
type Model struct {
	p     *Params
	self  event.LPID
	state Region
}

// New returns a model factory; it panics if the grid does not match the
// topology's LP count (checked lazily at first construction).
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

// State returns the region's current SIR counts.
func (m *Model) State() Region { return m.state }

// Init seeds patient zero and the tick cycle.
func (m *Model) Init(ctx pe.Context) {
	m.state = Region{S: m.p.Population}
	if m.self == 0 {
		m.state.S -= m.p.Seeds
		m.state.I += m.p.Seeds
	}
	ctx.Send(m.self, m.p.TickEvery+ctx.RNG().Float64()*0.01, EvTick, nil)
}

// OnEvent advances local dynamics or lands travellers.
func (m *Model) OnEvent(ctx pe.Context, ev *event.Event) {
	ctx.Spin(3000)
	switch ev.Kind {
	case EvTick:
		m.step(ctx)
		ctx.Send(m.self, m.p.TickEvery+ctx.RNG().Float64()*0.01, EvTick, nil)
	case EvTravel:
		n := int(binary.LittleEndian.Uint32(ev.Data))
		moved := min(n, m.state.S)
		m.state.S -= moved
		m.state.I += moved
	}
}

func (m *Model) step(ctx pe.Context) {
	st := &m.state
	if st.I == 0 {
		return
	}
	pressure := m.p.BetaLocal * float64(st.I) / float64(m.p.Population)
	newInf := min(int(pressure*float64(st.S)+ctx.RNG().Float64()), st.S)
	st.S -= newInf
	st.I += newInf

	rec := min(int(m.p.GammaRecov*float64(st.I)+ctx.RNG().Float64()), st.I)
	st.I -= rec
	st.R += rec

	if st.I > 5 && ctx.RNG().Float64() < m.p.TravelProb {
		dst := cluster.TorusStep(m.self, m.p.GridW, m.p.GridH, ctx.RNG().Intn(4))
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(1+ctx.RNG().Intn(3)))
		ctx.Send(dst, Lookahead+ctx.RNG().Exp(0.3), EvTravel, buf[:])
	}
}

// Snapshot and Restore implement rollback support (value-copy state).
func (m *Model) Snapshot() any { return m.state }

// Restore rewinds the region.
func (m *Model) Restore(s any) { m.state = s.(Region) }
