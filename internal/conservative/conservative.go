// Package conservative is conservative (blocking) synchronisation over
// the same processing-element runtime (internal/pe) as the optimistic
// Time Warp engine in internal/core.
//
// Instead of speculating and rolling back, a conservative worker only
// processes an event once it is provably safe: no event with a smaller
// timestamp can still arrive. Safety derives from the model's lookahead
// — the minimum virtual delay of any cross-worker send — via one of two
// pluggable protocols:
//
//   - SyncNullMsg: Chandy–Misra–Bryant style null messages. Each node
//     periodically promises its peers a lower bound (EOT, "earliest
//     output time") on any future event it may send, stamped lookahead
//     ahead of its current floor. Promises ratchet monotonically, so
//     with positive lookahead the protocol is deadlock-free.
//   - SyncWindow: a globally constrained moving time window. Every
//     round the cluster agrees (via allreduce, reusing the GVT
//     machinery's collectives) on the global minimum unprocessed
//     timestamp M and processes only events strictly below M+lookahead.
//
// Both protocols commit events at processing time, in per-LP stamp
// order, and produce byte-identical commit checksums to the sequential
// oracle in internal/seq — pinned by the parity tests in this package.
package conservative

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// SyncKind selects the conservative synchronization protocol.
type SyncKind int

const (
	// SyncNullMsg is CMB-style asynchronous null-message synchronization.
	SyncNullMsg SyncKind = iota
	// SyncWindow is the globally constrained moving-window protocol.
	SyncWindow
)

// syncNames names each SyncKind, in SyncKind order.
var syncNames = [...]string{"nullmsg", "window"}

// SyncNames lists the synchronization protocols' names in SyncKind
// order: SyncKind(i) is named SyncNames()[i]. Callers must not modify it.
func SyncNames() []string { return syncNames[:] }

func (k SyncKind) String() string {
	if uint(k) < uint(len(syncNames)) {
		return syncNames[k]
	}
	return fmt.Sprintf("SyncKind(%d)", int(k))
}

// Config parameterizes a conservative run. The model, topology, seed,
// queue and batch mean exactly what they mean in core.Config, and the run
// is on the same simulated machine; the engine adds the sync protocol and
// the lookahead bound.
type Config struct {
	Topology cluster.Topology

	// Sync selects the synchronization protocol.
	Sync SyncKind
	// Lookahead is the model's minimum virtual delay on any cross-worker
	// send. It must be strictly positive: both protocols derive their
	// progress guarantee from it (null-message promises and the moving
	// window each advance by at least one lookahead per exchange, so a
	// zero lookahead would deadlock the cluster). The engine panics at
	// runtime if the model violates the declared bound.
	Lookahead vtime.Time

	EndTime   vtime.Time
	Seed      uint64
	BatchSize int // events processed per scheduling slice (default 16)

	Model pe.ModelFactory

	Trace   *trace.Writer
	Metrics *metrics.Recorder
}

// observeInterval is the virtual-time cadence at which the null-message
// observer records utilization rounds (trace Round records plus
// horizon-roughness samples). The window protocol records one round per
// horizon advance instead.
const observeInterval = 250 * sim.Microsecond

// Defaults fills unset fields with paper-faithful values.
func (c *Config) Defaults() {
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
}

// Validate checks the configuration. Call Defaults first.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Model == nil {
		return fmt.Errorf("conservative: Config.Model is required")
	}
	if c.EndTime <= 0 {
		return fmt.Errorf("conservative: EndTime must be positive, got %v", c.EndTime)
	}
	if c.Lookahead <= 0 {
		return fmt.Errorf("conservative: Lookahead must be strictly positive (got %v): both sync protocols advance by at least one lookahead per exchange, so a zero lookahead deadlocks the cluster", c.Lookahead)
	}
	if c.Sync != SyncNullMsg && c.Sync != SyncWindow {
		return fmt.Errorf("conservative: unknown sync protocol %v (want nullmsg | window)", c.Sync)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("conservative: BatchSize must be positive, got %d", c.BatchSize)
	}
	return nil
}

// Engine is one conservative simulation instance. Like core.Engine it is
// single-use: New, Run (from the embedded runtime), then read the results.
type Engine struct {
	pe.Runtime
	cfg   Config
	nodes []*node

	la  vtime.Time
	end vtime.Time

	nullMsgs int64
	nulls    *nullMsg            // free list: recvInbound returns each it consumes
	nullSlab event.Slab[nullMsg] // where fresh ones come from
}

// newNull returns a null message to send, recycled when one is free.
func (e *Engine) newNull() *nullMsg {
	m := e.nulls
	if m == nil {
		return e.nullSlab.New()
	}
	e.nulls, m.next = m.next, nil
	return m
}

// New builds an engine. It panics on an invalid configuration (mirroring
// core.New); validate separately to reject bad input gracefully.
func New(cfg Config) *Engine {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := &Engine{cfg: cfg, la: cfg.Lookahead, end: cfg.EndTime}
	eng.Init(pe.Config{
		Topology: cfg.Topology, Seed: cfg.Seed, Model: cfg.Model,
		Trace: cfg.Trace, Metrics: cfg.Metrics,
	}, eng.finish)
	for id := 0; id < cfg.Topology.Nodes; id++ {
		eng.nodes = append(eng.nodes, newNode(eng))
	}
	eng.Seed()
	eng.nullSlab.First = nullsPerLink * cfg.Topology.Nodes * cfg.Topology.Nodes
	if cfg.Sync == SyncNullMsg {
		eng.AddProcess("observer", eng.observe)
	}
	return eng
}

// horizonFloor clamps a virtual-time floor against the end of the run:
// events beyond EndTime are never processed, so they can never generate
// sends and contribute an infinite bound.
func (e *Engine) horizonFloor(t vtime.Time) vtime.Time {
	if t > e.end {
		return vtime.Inf
	}
	return t
}

// observe is the null-message utilization observer: a zero-interaction
// process that samples the cluster's virtual-time horizon at a fixed
// virtual cadence until every worker has exited. It only reads worker
// state, so it cannot perturb the committed event stream.
func (e *Engine) observe(p *sim.Proc) {
	for {
		p.Advance(observeInterval)
		exited := 0
		gvt := vtime.Inf
		for _, nd := range e.nodes {
			exited += nd.WorkersExited
			for _, w := range nd.workers {
				if f := w.floorLive(); f < gvt {
					gvt = f
				}
			}
		}
		if exited == e.cfg.Topology.TotalWorkers() {
			return
		}
		e.onRound(gvt, false)
	}
}

// onRound records one synchronization (window) or observation (nullmsg)
// round, with every worker's live floor as its LVT and the horizon
// clamped to the end of the run.
func (e *Engine) onRound(gvt vtime.Time, sync bool) {
	for _, nd := range e.nodes {
		for _, w := range nd.workers {
			e.Views[w.Gidx].LVT = float64(w.floorLive())
		}
	}
	e.RecordRound(pe.Round{GVT: vtime.Min(gvt, e.end), Sync: sync, Efficiency: 1})
}

// finish completes the run statistics: the run ends when the kernel does,
// with the horizon past the end time.
func (e *Engine) finish(r *stats.Run) {
	r.WallTime = e.Env.Now()
	r.FinalGVT = float64(e.end)
	r.NullMessages = e.nullMsgs
	for _, nd := range e.nodes {
		r.PoolNews += int64(nd.pool.News)
		r.PoolRecycled += int64(nd.pool.Gets)
	}
}

// Report assembles the canonical run report for r, which must have come
// from this engine's Run.
func (e *Engine) Report(r *stats.Run) *metrics.Report {
	cfg := &e.cfg
	rc := metrics.RunConfig{
		Engine:         "conservative",
		Sync:           cfg.Sync.String(),
		Lookahead:      float64(cfg.Lookahead),
		Nodes:          cfg.Topology.Nodes,
		WorkersPerNode: cfg.Topology.WorkersPerNode,
		LPsPerWorker:   cfg.Topology.LPsPerWorker,
		Comm:           "dedicated",
		EndTime:        float64(cfg.EndTime),
		Seed:           cfg.Seed,
		Queue:          "heap",
		BatchSize:      cfg.BatchSize,
	}
	return metrics.BuildReport(rc, metrics.RunStatsOf(r), e.cfg.Metrics, cfg.Topology.WorkersPerNode)
}
