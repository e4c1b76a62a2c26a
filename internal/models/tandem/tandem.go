// Package tandem is an open tandem queueing network: jobs arrive at stage
// 0 as a Poisson process, pass through a pipeline of single-server FIFO
// queues (one queue per LP) and leave at the last stage. With a pipeline
// laid out across workers and nodes, every handoff is a regional or
// remote message — a directional communication pattern very different
// from PHOLD's.
package tandem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/event"
	"repro/internal/pe"
)

// Event kinds.
const (
	// EvArrive delivers a job to this queue.
	EvArrive uint16 = 1
	// EvComplete finishes this queue's current service.
	EvComplete uint16 = 2
)

// Params configures the network.
type Params struct {
	Interarrival float64 // mean time between external arrivals at stage 0
	ServiceMean  float64 // mean service time per stage
	HopDelay     float64 // transfer time between stages
}

// Lookahead returns the model's minimum cross-stage delay — exactly the
// hop delay, since stage-to-stage transfers use it verbatim — which a
// conservative engine may use as its lookahead bound.
func (p Params) Lookahead() float64 {
	q := p
	q.Defaults()
	return q.HopDelay
}

// Defaults fills zero fields (ρ = ServiceMean/Interarrival = 0.7).
func (p *Params) Defaults() {
	if p.Interarrival == 0 {
		p.Interarrival = 0.50
	}
	if p.ServiceMean == 0 {
		p.ServiceMean = 0.35
	}
	if p.HopDelay == 0 {
		p.HopDelay = 0.05
	}
}

// Validate reports parameter errors.
func (p *Params) Validate() error {
	if p.Interarrival <= 0 || p.ServiceMean <= 0 || p.HopDelay <= 0 {
		return fmt.Errorf("tandem: non-positive parameters %+v", p)
	}
	return nil
}

// QueueState is the rollback-protected state of one stage.
type QueueState struct {
	Waiting    int
	Busy       bool
	Served     int64
	BusyTime   float64
	LastStart  float64
	CurrentJob uint32
}

// Utilization returns the server's busy fraction over the given horizon.
func (s QueueState) Utilization(end float64) float64 {
	if end <= 0 {
		return 0
	}
	return s.BusyTime / end
}

// Model is one queueing stage.
type Model struct {
	p      *Params
	self   event.LPID
	stages int
	state  QueueState
}

// New returns the model factory.
func New(p Params) pe.ModelFactory {
	p.Defaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	var models event.Slab[Model]
	return func(lp event.LPID, total int) pe.Model {
		models.First = total // one model per LP, from as few arrays as the slab allows
		m := models.New()
		*m = Model{p: &p, self: lp, stages: total}
		return m
	}
}

// State returns the stage's metrics.
func (m *Model) State() QueueState { return m.state }

// Init starts the external arrival process at stage 0.
func (m *Model) Init(ctx pe.Context) {
	if m.self == 0 {
		m.scheduleArrival(ctx, 0)
	}
}

// OnEvent services arrivals and completions.
func (m *Model) OnEvent(ctx pe.Context, ev *event.Event) {
	ctx.Spin(1500)
	switch ev.Kind {
	case EvArrive:
		job := binary.LittleEndian.Uint32(ev.Data)
		if m.self == 0 {
			m.scheduleArrival(ctx, job+1)
		}
		if m.state.Busy {
			m.state.Waiting++
		} else {
			m.startService(ctx, job)
		}
	case EvComplete:
		st := &m.state
		st.Busy = false
		st.Served++
		st.BusyTime += ctx.Now() - st.LastStart
		if int(m.self) < m.stages-1 {
			m.forward(ctx, st.CurrentJob)
		}
		if st.Waiting > 0 {
			st.Waiting--
			m.startService(ctx, st.CurrentJob+1)
		}
	}
}

func (m *Model) scheduleArrival(ctx pe.Context, job uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], job)
	ctx.Send(0, ctx.RNG().Exp(m.p.Interarrival)+0.01, EvArrive, buf[:])
}

func (m *Model) startService(ctx pe.Context, job uint32) {
	st := &m.state
	st.Busy = true
	st.CurrentJob = job
	st.LastStart = ctx.Now()
	ctx.Send(m.self, ctx.RNG().Exp(m.p.ServiceMean)+0.01, EvComplete, nil)
}

func (m *Model) forward(ctx pe.Context, job uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], job)
	ctx.Send(m.self+1, m.p.HopDelay, EvArrive, buf[:])
}

// Snapshot copies the stage state.
func (m *Model) Snapshot() any { return m.state }

// Restore rewinds the stage state.
func (m *Model) Restore(s any) { m.state = s.(QueueState) }
