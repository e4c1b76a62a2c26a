// Package conservative implements a conservative (blocking) parallel
// discrete event simulation engine over the same cluster, MPI and model
// layers as the optimistic Time Warp engine in internal/core.
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
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rng"
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

func (k SyncKind) String() string {
	switch k {
	case SyncNullMsg:
		return "nullmsg"
	case SyncWindow:
		return "window"
	}
	return fmt.Sprintf("SyncKind(%d)", int(k))
}

// Config parameterizes a conservative run. The model, topology, seed and
// cost knobs mean exactly what they mean in core.Config; the engine adds
// the sync protocol and the lookahead bound.
type Config struct {
	Topology cluster.Topology
	Cost     cluster.CostModel
	Net      fabric.Params
	MPICosts mpi.Costs

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
	QueueKind string // pending-queue implementation: "heap" (default) | "calendar"
	BatchSize int    // events processed per scheduling slice

	// ObserveInterval is the virtual-time cadence at which the
	// null-message observer records utilization rounds (trace Round
	// records plus horizon-roughness samples). The window protocol
	// records one round per horizon advance instead and ignores this.
	ObserveInterval sim.Time

	Model core.ModelFactory

	Trace   *trace.Writer
	Metrics *metrics.Recorder
}

// Defaults fills unset fields with paper-faithful values.
func (c *Config) Defaults() {
	if c.Cost == (cluster.CostModel{}) {
		c.Cost = cluster.KNLDefaults()
	}
	if c.Net == (fabric.Params{}) {
		c.Net = fabric.EthernetDefaults()
	}
	if c.MPICosts == (mpi.Costs{}) {
		c.MPICosts = mpi.DefaultCosts()
	}
	if c.QueueKind == "" {
		c.QueueKind = "heap"
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.ObserveInterval == 0 {
		c.ObserveInterval = 250 * sim.Microsecond
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
	if c.QueueKind != "heap" && c.QueueKind != "calendar" {
		return fmt.Errorf("conservative: unknown queue kind %q (want heap | calendar)", c.QueueKind)
	}
	if c.ObserveInterval < 0 {
		return fmt.Errorf("conservative: ObserveInterval must be positive, got %v", c.ObserveInterval)
	}
	return nil
}

// Engine is one conservative simulation instance. Like core.Engine it is
// single-use: New, Run, then read the results.
type Engine struct {
	cfg   Config
	env   *sim.Env
	world *mpi.World
	nodes []*node

	la  vtime.Time
	end vtime.Time

	rounds     int64
	syncRounds int64
	finalGVT   vtime.Time
	disparity  stats.Disparity
	nullMsgs   int64
	exited     int // workers finished, cluster-wide

	lvtScratch []float64
}

// New builds an engine. It panics on an invalid configuration (mirroring
// core.New); validate separately to reject bad input gracefully.
func New(cfg Config) *Engine {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := &Engine{cfg: cfg, la: cfg.Lookahead, end: cfg.EndTime}
	eng.env = sim.NewEnv()
	eng.env.LivelockLimit = 500_000_000
	eng.world = mpi.NewWorld(eng.env, cfg.Topology.Nodes, cfg.Net, cfg.MPICosts)
	if rec := cfg.Metrics; rec != nil {
		rec.Init(cfg.Topology.TotalWorkers())
	}
	streams := rng.NewSequence(cfg.Seed)
	for id := 0; id < cfg.Topology.Nodes; id++ {
		eng.nodes = append(eng.nodes, newNode(eng, id, streams))
	}
	// Seed initial events exactly as the sequential oracle does: every
	// LP's Init runs at virtual time zero in global id order, and each
	// send lands directly in the destination LP's pending queue.
	for _, nd := range eng.nodes {
		for _, w := range nd.workers {
			for _, l := range w.lps {
				l.model.Init(&initCtx{eng: eng, lp: l})
			}
		}
	}
	return eng
}

// Run executes the simulation to completion and returns the aggregated
// statistics.
func (e *Engine) Run() (*stats.Run, error) {
	for _, nd := range e.nodes {
		nd.spawn()
	}
	if e.cfg.Sync == SyncNullMsg {
		e.spawnObserver()
	}
	if err := e.env.Run(); err != nil {
		return nil, err
	}
	return e.collect(), nil
}

// Cancel requests that a running simulation stop. Safe to call from any
// goroutine; Run unwinds at the next kernel dispatch boundary and
// returns sim.ErrCancelled.
func (e *Engine) Cancel() { e.env.Cancel() }

// workerOf returns the worker hosting lp.
func (e *Engine) workerOf(lp event.LPID) *worker {
	n, w := e.cfg.Topology.WorkerOf(lp)
	return e.nodes[n].workers[w]
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

// spawnObserver starts the null-message utilization observer: a
// zero-interaction process that samples the cluster's virtual-time
// horizon at a fixed virtual cadence. It only reads worker state, so it
// cannot perturb the committed event stream.
func (e *Engine) spawnObserver() {
	e.env.Spawn("observer", func(p *sim.Proc) {
		for {
			p.Advance(e.cfg.ObserveInterval)
			if e.exited >= e.cfg.Topology.TotalWorkers() {
				return
			}
			gvt := vtime.Inf
			for _, nd := range e.nodes {
				for _, w := range nd.workers {
					if f := w.floorLive(); f < gvt {
						gvt = f
					}
				}
			}
			e.onRound(p.Now(), gvt, false)
		}
	})
}

// onRound records one synchronization (window) or observation (nullmsg)
// round: the horizon-roughness sample, the metrics round sample, the
// progress update and the trace record. It performs no simulated work
// (no Advance), so in the cooperative kernel it is atomic.
func (e *Engine) onRound(now sim.Time, gvt vtime.Time, sync bool) {
	e.rounds++
	if sync {
		e.syncRounds++
	}
	g := float64(gvt)
	if g > float64(e.end) {
		g = float64(e.end)
	}
	e.finalGVT = vtime.Time(g)
	if e.lvtScratch == nil {
		e.lvtScratch = make([]float64, 0, e.cfg.Topology.TotalWorkers())
	}
	lvts := e.lvtScratch[:0]
	rec := e.cfg.Metrics
	var scratch []metrics.WorkerSample
	if rec != nil {
		scratch = rec.Scratch()
	}
	var processed int64
	i := 0
	for _, nd := range e.nodes {
		for _, w := range nd.workers {
			lvt := float64(w.floorLive())
			lvts = append(lvts, lvt)
			processed += w.st.Processed
			if scratch != nil {
				scratch[i] = metrics.WorkerSample{
					LVT:           metrics.SafeLVT(lvt),
					Pending:       w.pending.Len(),
					Mailbox:       len(w.inbox),
					BarrierWaitNs: int64(w.st.BarrierWait),
				}
			}
			i++
		}
	}
	e.lvtScratch = lvts
	e.disparity.Observe(lvts)
	at := int64(now)
	if rec != nil {
		f := e.world.Fabric()
		im, ib := f.InFlight()
		rec.SampleRound(metrics.RoundSample{
			Round: e.rounds, GVT: g, AtNanos: at, Sync: sync, Efficiency: 1,
			MPIInFlightMsgs: im, MPIInFlightBytes: ib,
			MPISentMsgs: f.MessagesSent, MPISentBytes: f.BytesSent,
		}, scratch)
		if rec.WantProgress() {
			rec.Progress(metrics.ProgressUpdate{
				Round: e.rounds, GVT: g, AtNanos: at, Sync: sync, Efficiency: 1,
				Processed: processed, Committed: processed,
			})
		}
	}
	if tr := e.cfg.Trace; tr != nil {
		tr.Round(trace.Round{Round: e.rounds, GVT: g, AtNanos: at, Sync: sync, Efficiency: 1})
	}
}

// collect aggregates the final statistics.
func (e *Engine) collect() *stats.Run {
	r := &stats.Run{
		WallTime:     e.env.Now(),
		GVTRounds:    e.rounds,
		SyncRounds:   e.syncRounds,
		FinalGVT:     float64(e.end),
		Disparity:    e.disparity.Mean(),
		NullMessages: e.nullMsgs,
		Kernel:       e.env.Counters(),
	}
	var sum uint64
	for _, nd := range e.nodes {
		for _, w := range nd.workers {
			r.Workers.Add(&w.st)
			for _, l := range w.lps {
				sum += uint64(l.checksum)
			}
		}
	}
	r.CommitChecksum = sum
	f := e.world.Fabric()
	r.MPIMessages = f.MessagesSent
	r.MPIBytes = f.BytesSent
	return r
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
		QueueKind:      cfg.QueueKind,
		BatchSize:      cfg.BatchSize,
	}
	return metrics.BuildReport(rc, metrics.RunStatsOf(r), e.cfg.Metrics, cfg.Topology.WorkersPerNode)
}
