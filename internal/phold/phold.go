// Package phold implements the paper's modified PHOLD benchmark
// (Fujimoto [11], as adapted in §2/§4): every LP starts with a fixed
// number of events; processing an event spins for EPG work units and
// sends one new event to a destination drawn as remote (another node),
// regional (another core on the same node) or local (the LP itself)
// according to configured percentages, with an exponential time increment
// plus lookahead.
//
// The mixed X–Y models of §6 alternate between a computation-dominated
// and a communication-dominated parameter set as simulation time
// progresses, repeating the pattern over the run.
package phold

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/vtime"
)

// Phase is one parameter regime of the workload.
type Phase struct {
	RemotePct   float64 // probability a new event targets another node
	RegionalPct float64 // probability it targets another core, same node
	EPG         int     // event processing granularity (work units)
}

// ComputationDominated returns the paper's computation-dominated scenario:
// 10% regional, 1% remote, 10K EPG.
func ComputationDominated() Phase {
	return Phase{RemotePct: 0.01, RegionalPct: 0.10, EPG: 10_000}
}

// CommunicationDominated returns the paper's communication-dominated
// scenario: 90% regional, 10% remote, 5K EPG.
func CommunicationDominated() Phase {
	return Phase{RemotePct: 0.10, RegionalPct: 0.90, EPG: 5_000}
}

// Params configures the benchmark.
type Params struct {
	Topology    cluster.Topology
	StartEvents int     // initial events per LP (paper: 1)
	MeanDelay   float64 // exponential mean of the time increment
	Lookahead   float64 // constant floor added to every increment

	// Base is the single-phase workload.
	Base Phase

	// Mixed, when non-nil, alternates Base (computation) with Comm for
	// the paper's X–Y models: CompFrac percent of the end time in Base,
	// then CommFrac percent in Comm, repeating.
	Mixed *MixedModel
}

// MixedModel is the paper's X–Y alternating workload.
type MixedModel struct {
	Comm     Phase
	CompFrac float64 // X, in percent of end time
	CommFrac float64 // Y, in percent of end time
	EndTime  vtime.Time
}

// Defaults fills zero fields.
func (p *Params) Defaults() {
	if p.StartEvents == 0 {
		p.StartEvents = 1
	}
	if p.MeanDelay == 0 {
		p.MeanDelay = 1.0
	}
	if p.Lookahead == 0 {
		p.Lookahead = 0.1
	}
}

// Validate reports parameter errors.
func (p *Params) Validate() error {
	if err := p.Topology.Validate(); err != nil {
		return err
	}
	check := func(ph Phase) error {
		if ph.RemotePct < 0 || ph.RegionalPct < 0 || ph.RemotePct+ph.RegionalPct > 1 {
			return fmt.Errorf("phold: invalid destination percentages %+v", ph)
		}
		if ph.EPG < 0 {
			return fmt.Errorf("phold: negative EPG %d", ph.EPG)
		}
		return nil
	}
	if err := check(p.Base); err != nil {
		return err
	}
	if p.Mixed != nil {
		if err := check(p.Mixed.Comm); err != nil {
			return err
		}
		if p.Mixed.CompFrac <= 0 || p.Mixed.CommFrac <= 0 {
			return fmt.Errorf("phold: mixed fractions must be positive")
		}
		if p.Mixed.EndTime <= 0 {
			return fmt.Errorf("phold: mixed model needs EndTime")
		}
	}
	if p.Topology.Nodes == 1 && p.Base.RemotePct > 0 {
		return fmt.Errorf("phold: remote percentage with a single node")
	}
	return nil
}

// PhaseAt returns the active phase at simulation time t.
func (p *Params) PhaseAt(t vtime.Time) Phase {
	if p.Mixed == nil {
		return p.Base
	}
	m := p.Mixed
	compLen := m.EndTime * m.CompFrac / 100
	commLen := m.EndTime * m.CommFrac / 100
	cycle := compLen + commLen
	pos := t - cycle*float64(int(t/cycle))
	if pos < compLen {
		return p.Base
	}
	return m.Comm
}

// New returns the model factory for these parameters.
func New(p Params) pe.ModelFactory {
	p.Defaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return func(lp event.LPID, total int) pe.Model {
		return &Model{p: &p, self: lp}
	}
}

// Model is one PHOLD LP.
type Model struct {
	p    *Params
	self event.LPID
	// processed counts events handled; it is the LP's (minimal) rollback-
	// protected state, exercising the snapshot machinery.
	processed int64
}

// Init seeds the starting events, addressed to the LP itself.
func (m *Model) Init(ctx pe.Context) {
	for i := 0; i < m.p.StartEvents; i++ {
		ctx.Send(m.self, m.delay(ctx), 0, nil)
	}
}

// OnEvent spins for the phase's EPG and forwards one event to a randomly
// drawn destination.
func (m *Model) OnEvent(ctx pe.Context, _ *event.Event) {
	ph := m.p.PhaseAt(ctx.Now())
	// Draw destination and delay first so the RNG consumption order is
	// identical between the parallel engine and the sequential oracle.
	dst := m.pick(ctx, ph)
	d := m.delay(ctx)
	ctx.Spin(ph.EPG)
	m.processed++
	ctx.Send(dst, d, 0, nil)
}

// delay draws the time increment: lookahead + Exp(mean).
func (m *Model) delay(ctx pe.Context) vtime.Time {
	return m.p.Lookahead + ctx.RNG().Exp(m.p.MeanDelay)
}

// pick draws the destination LP per the phase's locality percentages.
func (m *Model) pick(ctx pe.Context, ph Phase) event.LPID {
	top := m.p.Topology
	u := ctx.RNG().Float64()
	switch {
	case u < ph.RemotePct && top.Nodes > 1:
		// Uniform LP on a different node.
		myNode := top.NodeOf(m.self)
		n := ctx.RNG().Intn(top.Nodes - 1)
		if n >= myNode {
			n++
		}
		perNode := top.WorkersPerNode * top.LPsPerWorker
		return event.LPID(n*perNode + ctx.RNG().Intn(perNode))
	case u < ph.RemotePct+ph.RegionalPct && top.WorkersPerNode > 1:
		// Uniform LP on the same node, different worker.
		myNode, myWorker := top.WorkerOf(m.self)
		w := ctx.RNG().Intn(top.WorkersPerNode - 1)
		if w >= myWorker {
			w++
		}
		return top.FirstLP(myNode, w) + event.LPID(ctx.RNG().Intn(top.LPsPerWorker))
	default:
		return m.self
	}
}

// Snapshot returns the LP state (the processed counter).
func (m *Model) Snapshot() any { return m.processed }

// Restore rewinds the LP state.
func (m *Model) Restore(s any) { m.processed = s.(int64) }

// Processed returns the number of events this LP has handled (net of
// rollbacks).
func (m *Model) Processed() int64 { return m.processed }
