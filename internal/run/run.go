package run

import (
	"repro/internal/cluster"
	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/models/epidemic"
	"repro/internal/models/pcs"
	"repro/internal/models/tandem"
	"repro/internal/pe"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Engine is one constructed run, on either engine: *core.Engine and
// *conservative.Engine both satisfy it.
type Engine interface {
	Run() (*stats.Run, error)
	// Cancel aborts the run at the kernel's next dispatch boundary; Run
	// then returns sim.ErrCancelled. Safe from any goroutine.
	Cancel()
	// Report assembles the run report for r, which must come from this
	// engine's Run.
	Report(r *stats.Run) *metrics.Report
}

// Attach carries the in-process things a Spec cannot name. None of them
// changes what the run commits.
type Attach struct {
	// Trace, when non-nil, receives the run's trace records; the caller
	// flushes it after Run.
	Trace *trace.Writer
	// Metrics, when non-nil, samples the run for Engine.Report.
	Metrics *metrics.Recorder
	// Model replaces the spec's model. Only the harness EPG sweep sets it:
	// EPG is a model parameter the spec has no field for.
	Model pe.ModelFactory
}

var (
	gvtKinds  = map[string]core.GVTKind{"barrier": core.GVTBarrier, "mattern": core.GVTMattern, "ca-gvt": core.GVTControlled, "samadi": core.GVTSamadi}
	commModes = map[string]core.CommMode{"dedicated": core.CommDedicated, "combined": core.CommCombined, "shared": core.CommShared}
	syncKinds = map[string]conservative.SyncKind{"nullmsg": conservative.SyncNullMsg, "window": conservative.SyncWindow}
)

// New canonicalizes the spec and builds its engine. Canonical is the one
// validator: a spec it accepts builds (FuzzSpecCanonical), so an invalid
// spec is an error, never a panic.
func New(spec Spec, at Attach) (Engine, error) {
	c, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	model := at.Model
	if model == nil {
		model = c.model()
	}
	if c.Engine == "conservative" {
		return conservative.New(conservative.Config{
			Topology:  c.Topology(),
			Sync:      syncKinds[c.Sync],
			Lookahead: c.Lookahead,
			EndTime:   c.EndTime,
			Seed:      c.Seed,
			QueueKind: c.Queue,
			BatchSize: c.BatchSize,
			Model:     model,
			Trace:     at.Trace,
			Metrics:   at.Metrics,
		}), nil
	}
	cfg := core.Config{
		Topology:           c.Topology(),
		GVT:                gvtKinds[c.GVT],
		GVTInterval:        c.GVTInterval,
		CAThreshold:        c.CAThreshold,
		Comm:               commModes[c.Comm],
		EndTime:            c.EndTime,
		Seed:               c.Seed,
		QueueKind:          c.Queue,
		BatchSize:          c.BatchSize,
		CheckpointInterval: c.CheckpointInterval,
		MaxUncommitted:     c.MaxUncommitted,
		Balance:            c.Balance,
		Model:              model,
		Trace:              at.Trace,
		Metrics:            at.Metrics,
	}
	if c.Faults != "" {
		plan, err := fabric.Scenario(c.Faults, c.Nodes)
		if err != nil {
			return nil, err
		}
		cfg.Faults = plan
		cfg.FaultLabel = c.Faults
	}
	if c.WatchdogMicros > 0 {
		cfg.WatchdogTimeout = sim.Time(c.WatchdogMicros) * sim.Microsecond
	}
	return core.New(cfg), nil
}

// Oracle runs the spec's model on the sequential reference engine: the
// commit stream every parallel run of the spec must reproduce.
func (s Spec) Oracle() (*seq.Result, error) {
	c, err := s.Canonical()
	if err != nil {
		return nil, err
	}
	return seq.New(c.model(), c.Topology().TotalLPs(), c.EndTime, c.Seed).Run(), nil
}

// model builds the model factory of an already-canonical spec.
func (c Spec) model() pe.ModelFactory {
	switch c.Model {
	case "pcs":
		w, h := cluster.NearSquareGrid(c.Topology().TotalLPs())
		return pcs.New(pcs.Params{GridW: w, GridH: h})
	case "epidemic":
		w, h := cluster.NearSquareGrid(c.Topology().TotalLPs())
		return epidemic.New(epidemic.Params{GridW: w, GridH: h})
	case "tandem":
		return tandem.New(tandem.Params{})
	default: // phold
		return phold.New(c.PholdParams())
	}
}

// PholdParams returns the PHOLD parameters an already-canonical phold
// spec describes.
func (c Spec) PholdParams() phold.Params {
	p := phold.Params{Topology: c.Topology()}
	comp, comm := phold.ComputationDominated(), phold.CommunicationDominated()
	if c.Nodes == 1 {
		// No remote destinations exist on a single node; the paper's
		// single-node points likewise have no MPI traffic.
		comp.RemotePct, comm.RemotePct = 0, 0
	}
	switch c.Scenario {
	case "comm":
		p.Base = comm
	case "mixed":
		p.Base = comp
		p.Mixed = &phold.MixedModel{Comm: comm, CompFrac: c.MixComp, CommFrac: c.MixComm, EndTime: c.EndTime}
	default: // comp
		p.Base = comp
	}
	return p
}
