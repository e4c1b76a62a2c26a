// Package core is the optimistic (Time Warp) synchronisation the paper
// runs its experiments on, over the processing-element runtime of
// internal/pe: what a delivery does (annihilate, roll back, enqueue),
// state saving and coast-forward, bounded optimism, fossil collection at
// GVT, LP migration, and the pluggable GVT algorithms — Barrier
// (Algorithm 1), Mattern (Algorithm 2), Controlled Asynchronous GVT
// (Algorithm 3) and Samadi's — with a dedicated (or combined, or shared)
// MPI communication thread per node.
//
// The engine's threads are processes of the internal/sim kernel, so a run
// is a deterministic simulation of the paper's cluster: performance is
// reported in virtual wall-clock time.
package core

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// GVTKind selects the GVT algorithm.
type GVTKind int

const (
	// GVTBarrier is the synchronous two-level barrier algorithm
	// (paper Algorithm 1).
	GVTBarrier GVTKind = iota
	// GVTMattern is the asynchronous algorithm adapted from Mattern
	// (paper Algorithm 2).
	GVTMattern
	// GVTControlled is CA-GVT: Mattern plus conditional synchronization
	// driven by observed efficiency (paper Algorithm 3).
	GVTControlled
	// GVTSamadi is the acknowledgement-based algorithm of Samadi (1985),
	// cited in the paper's related work: ack traffic keeps every in-transit
	// message covered by its sender, so GVT needs a single reduction and
	// no transit draining (implemented here as an extension baseline).
	GVTSamadi
)

func (k GVTKind) String() string {
	switch k {
	case GVTBarrier:
		return "barrier"
	case GVTMattern:
		return "mattern"
	case GVTControlled:
		return "ca-gvt"
	case GVTSamadi:
		return "samadi"
	}
	return fmt.Sprintf("GVTKind(%d)", int(k))
}

// CommMode selects how MPI communication is serviced within a node
// (the paper's first contribution, §4 "Dedicated MPI Thread").
type CommMode int

const (
	// CommDedicated gives each node one thread exclusively servicing MPI;
	// it performs no event processing (the paper's proposal).
	CommDedicated CommMode = iota
	// CommCombined makes worker 0 service all MPI in addition to normal
	// event processing (the baseline from [31] the paper compares against).
	CommCombined
	// CommShared makes every worker service MPI, contending on the MPI
	// lock (the §1-motivating worst case; an ablation here).
	CommShared
)

func (m CommMode) String() string {
	switch m {
	case CommDedicated:
		return "dedicated"
	case CommCombined:
		return "combined"
	case CommShared:
		return "shared"
	}
	return fmt.Sprintf("CommMode(%d)", int(m))
}

// The model contract lives with the runtime both engines share.
type (
	Model        = pe.Model
	Context      = pe.Context
	ModelFactory = pe.ModelFactory
)

// Config parameterizes a run. The simulated machine is not part of it:
// every run is on the paper's KNL nodes and 10 GbE fabric (see pe).
type Config struct {
	Topology cluster.Topology

	GVT         GVTKind
	GVTInterval int     // main-loop passes between GVT rounds (paper: 25/50)
	CAThreshold float64 // CA-GVT efficiency threshold (paper: 0.80)

	Comm      CommMode
	EndTime   vtime.Time
	Seed      uint64
	QueueKind string // pending-set implementation: "heap" (default) | "calendar"
	BatchSize int    // events processed per main-loop pass (default 16, as ROSS mbatch)

	// PoolDebug poisons every event the node pools recycle (sentinel
	// values verified on reuse) and asserts liveness at every delivery and
	// anti-copy, catching a use-after-recycle at its source instead of as
	// silent corruption. Events always recycle through the pools, which
	// charge no virtual cost; this adds only the checks.
	PoolDebug bool

	// CheckpointInterval is the state-saving period: a snapshot is taken
	// before every k-th processed event of an LP (1 = copy state every
	// event, the ROSS default here). With k > 1, rollback restores the
	// nearest earlier snapshot and coast-forwards (re-executes events with
	// sends suppressed) up to the rollback target — trading snapshot cost
	// for replay cost.
	CheckpointInterval int

	// MaxUncommitted bounds optimism the way ROSS's fixed event pool does
	// (§3: "eventually all memory would be consumed"): a worker whose
	// uncommitted processed-event history reaches this bound stops
	// processing until fossil collection frees room. Default: 8x the
	// worker's LP count. Negative disables the bound.
	MaxUncommitted int

	Model ModelFactory

	// Balance selects the dynamic load-balancing policy (see
	// internal/balance): "" or "static" disables migration entirely (the
	// engine takes the zero-overhead static path, byte-identical to a
	// build without the balancer); "greedy" moves the hottest LPs off the
	// most-behind node when the LVT-lag spread exceeds a threshold;
	// "straggler" weights placement by the per-node cost model. Decisions
	// are computed only from committed (post-GVT) state and executed at
	// GVT commit points, so the committed event stream is identical to
	// the sequential oracle under every policy.
	Balance string

	// Faults, when non-nil, installs a deterministic fault-injection plan
	// on the fabric (packet drops, duplicates, delay jitter, periodic
	// partition windows, straggler nodes) and layers the reliable
	// transport under MPI so delivery stays exactly-once in-order. The
	// fault RNG stream is seeded from Seed via a dedicated salt, so the
	// model-level random draws — and hence the committed event stream —
	// are unchanged by enabling faults.
	Faults *fabric.FaultPlan
	// FaultLabel names the fault scenario in run reports (report-only;
	// see fabric.Scenario for the built-ins).
	FaultLabel string
	// WatchdogTimeout drives the GVT liveness watchdog: when the
	// Mattern/CA ring master observes no token progress for this long,
	// it resends the last control token (nodes that already served the
	// lap re-apply their recorded contribution; the master discards the
	// duplicate if the original completes). Zero auto-selects 2ms when
	// Faults is set and disables the watchdog otherwise; negative
	// disables it explicitly.
	WatchdogTimeout sim.Time
	// WatchdogFallbackAfter is how many watchdog restarts within a single
	// GVT round force the next round to run synchronously (the barrier
	// fallback: a round whose sync points re-align a cluster the token
	// keeps dying on). Default 3.
	WatchdogFallbackAfter int
	// CheckInvariants enables the strengthened GVT invariant: at every
	// round completion the published GVT is checked against the true
	// minimum over all worker LVTs, mailboxes, outboxes, stashed
	// anti-messages, transport buffers and in-flight packets. Always on
	// when Faults is set.
	CheckInvariants bool

	// Trace, when non-nil, receives a record for every committed event,
	// every completed GVT round, every rollback episode, every MPI
	// data-plane send/receive and every worker phase transition
	// (ROSS-style event tracing, format v1). The caller flushes it after
	// Run.
	Trace *trace.Writer

	// Metrics, when non-nil, is driven by the engine: per-GVT-round
	// cluster and per-worker time series plus engine histograms, exported
	// with Engine.Report after Run.
	Metrics *metrics.Recorder
}

// Defaults fills zero-valued fields with paper-flavoured defaults.
func (c *Config) Defaults() {
	if c.QueueKind == "" {
		c.QueueKind = "heap"
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.GVTInterval == 0 {
		c.GVTInterval = 25
	}
	if c.CAThreshold == 0 {
		c.CAThreshold = 0.80
	}
	if c.MaxUncommitted == 0 {
		c.MaxUncommitted = 8 * c.Topology.LPsPerWorker
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 1
	}
	if c.WatchdogFallbackAfter == 0 {
		c.WatchdogFallbackAfter = 3
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Model == nil {
		return fmt.Errorf("core: Config.Model is nil")
	}
	if c.EndTime <= 0 {
		return fmt.Errorf("core: EndTime must be positive, got %v", c.EndTime)
	}
	if c.GVTInterval < 2 {
		return fmt.Errorf("core: GVTInterval must be >= 2, got %d", c.GVTInterval)
	}
	if c.CAThreshold < 0 || c.CAThreshold > 1 {
		return fmt.Errorf("core: CAThreshold must be in [0,1], got %v", c.CAThreshold)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("core: CheckpointInterval must be positive, got %d", c.CheckpointInterval)
	}
	if c.WatchdogFallbackAfter < 0 {
		return fmt.Errorf("core: WatchdogFallbackAfter must be positive, got %d", c.WatchdogFallbackAfter)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Topology.Nodes); err != nil {
			return err
		}
	}
	if _, err := balance.New(c.Balance, balance.Options{}); err != nil {
		return err
	}
	return nil
}

// Engine is one configured simulation run.
type Engine struct {
	pe.Runtime
	cfg   Config
	nodes []*node

	// matchSeq hands out cluster-unique anti-message match IDs. It lives
	// outside simulated state: IDs are never reused, never rolled back.
	matchSeq uint64

	// run-level results
	finishedAt sim.Time
	finalGVT   vtime.Time

	// Load balancing (see Config.Balance). routing is always present —
	// the static fast path is arithmetic — but the rest only activates
	// when a non-static policy is configured (migEnabled).
	routing        *cluster.Routing
	balancer       balance.Policy
	migEnabled     bool
	balanceFactors []float64           // per-node cost factors for the policy
	migrating      map[event.LPID]bool // LPs with a planned or in-flight move
	migrations     int64
	migratedEvents int64
	prevCommitted  []int64 // per-node cumulative committed at last plan
	prevRolled     []int64

	// robustness machinery (see Config.Faults / WatchdogTimeout)
	invariants  bool     // GVT ≤ min(observable) checked every round
	wdTimeout   sim.Time // resolved watchdog timeout (0 = off)
	wdRestarts  int64    // watchdog token resends across the run
	wdFallbacks int64    // rounds forced synchronous by the watchdog
	wdForceSync bool     // pending: next published round must be sync

	// telemetry instruments, resolved once at construction (nil when
	// Config.Metrics is nil) so hot paths pay a nil check, not a map
	// lookup.
	hRollbackDepth *metrics.Histogram
	hInboxBatch    *metrics.Histogram
	hOutboxDepth   *metrics.Histogram
}

// faultSeedSalt decorrelates the fault-injection RNG stream from the
// model substreams derived from the same Config.Seed.
const faultSeedSalt = 0x9e3779b97f4a7c15

// tokenRetryBudget bounds GVT-token retransmissions at the transport
// layer: a token stuck behind a partition fails over to the liveness
// watchdog instead of retrying forever. Data events keep unlimited
// retries — no committed event is ever lost to a fault plan.
const tokenRetryBudget = 3

// New builds an engine. It panics on invalid configuration (construction
// is programmer-controlled; see Config.Validate for checking first).
func New(cfg Config) *Engine {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := &Engine{cfg: cfg, routing: cluster.NewRouting(cfg.Topology)}
	eng.Init(pe.Config{
		Topology: cfg.Topology, Seed: cfg.Seed, QueueKind: cfg.QueueKind, Model: cfg.Model,
		Trace: cfg.Trace, Metrics: cfg.Metrics,
	}, eng.finish)
	if cfg.Balance != "" && cfg.Balance != "static" && cfg.Balance != "none" {
		factors := make([]float64, cfg.Topology.Nodes)
		for i := range factors {
			factors[i] = 1
			if cfg.Faults != nil {
				if f, ok := cfg.Faults.Straggler[i]; ok && f > 0 {
					factors[i] = f
				}
			}
		}
		pol, err := balance.New(cfg.Balance, balance.Options{CostFactors: factors})
		if err != nil {
			panic(err) // unreachable: Validate accepted the name
		}
		eng.balancer = pol
		eng.migEnabled = true
		eng.balanceFactors = factors
		eng.migrating = make(map[event.LPID]bool)
		eng.prevCommitted = make([]int64, cfg.Topology.Nodes)
		eng.prevRolled = make([]int64, cfg.Topology.Nodes)
	}
	eng.invariants = cfg.CheckInvariants || cfg.Faults != nil
	eng.wdTimeout = cfg.WatchdogTimeout
	if eng.wdTimeout == 0 && cfg.Faults != nil {
		eng.wdTimeout = 2 * sim.Millisecond
	}
	if eng.wdTimeout < 0 {
		eng.wdTimeout = 0
	}
	if cfg.Faults != nil {
		f := eng.World.Fabric()
		if err := f.SetFaults(cfg.Faults, cfg.Seed^faultSeedSalt); err != nil {
			panic(err)
		}
		eng.World.EnableReliable(mpi.ReliableParams{
			TagRetryLimit: map[int]int{tagToken: tokenRetryBudget},
		})
		var cFault *metrics.Counter
		if cfg.Metrics != nil {
			cFault = cfg.Metrics.Registry().Counter("faults_injected")
		}
		tr := cfg.Trace
		f.FaultHook = func(fe fabric.FaultEvent) {
			if cFault != nil {
				cFault.Inc()
			}
			if tr != nil {
				tr.Fault(trace.Fault{
					Kind: uint8(fe.Kind), Src: uint16(fe.Src), Dst: uint16(fe.Dst),
					AtNanos: int64(fe.At), DelayNanos: int64(fe.Delay),
				})
			}
		}
	}
	if rec := cfg.Metrics; rec != nil {
		reg := rec.Registry()
		eng.hRollbackDepth = reg.Histogram("rollback_depth")
		eng.hInboxBatch = reg.Histogram("inbox_drain_batch")
		eng.hOutboxDepth = reg.Histogram("mpi_outbox_depth")
	}
	for n := 0; n < cfg.Topology.Nodes; n++ {
		eng.nodes = append(eng.nodes, newNode(eng))
	}
	eng.Seed()
	return eng
}

// nextMatchID returns a cluster-unique anti-message identity.
func (e *Engine) nextMatchID() uint64 {
	e.matchSeq++
	return e.matchSeq
}

// finish completes the run statistics with what only Time Warp counts.
// The run ends at its last GVT round, not when the last thread unwinds.
func (e *Engine) finish(r *stats.Run) {
	r.WallTime = e.finishedAt
	r.FinalGVT = e.finalGVT
	for _, nd := range e.nodes {
		r.PoolNews += int64(nd.pool.News)
		r.PoolRecycled += int64(nd.pool.Gets)
	}
	r.Migrations = e.migrations
	r.MigratedEvents = e.migratedEvents
	r.WatchdogRestarts = e.wdRestarts
	r.WatchdogFallbacks = e.wdFallbacks
}

// onRoundComplete is invoked (outside simulated cost) by the GVT master
// when a round finishes; it records the round and plans load balancing.
func (e *Engine) onRoundComplete(gvt vtime.Time, sync bool, eff float64) {
	e.checkGVTInvariant(gvt)
	e.finalGVT = gvt
	e.finishedAt = e.Env.Now()
	for _, nd := range e.nodes {
		for _, w := range nd.workers {
			e.Views[w.Gidx] = pe.View{LVT: w.localMin(), Uncommitted: w.uncommitted}
		}
	}
	e.RecordRound(pe.Round{GVT: gvt, Sync: sync, Efficiency: eff, Migrations: e.migrations})
	// Load-balance planning runs last, over exactly the committed-state
	// snapshot the telemetry above recorded; workers execute the plan at
	// their applyGVT for this (or the next) round.
	e.planBalance(gvt)
}

// Report assembles the machine-readable run report from a completed
// run's statistics, the configuration, and (when Config.Metrics was set)
// the sampled time series and registry contents.
func (e *Engine) Report(r *stats.Run) *metrics.Report {
	cfg := &e.cfg
	rc := metrics.RunConfig{
		Nodes:              cfg.Topology.Nodes,
		WorkersPerNode:     cfg.Topology.WorkersPerNode,
		LPsPerWorker:       cfg.Topology.LPsPerWorker,
		GVT:                cfg.GVT.String(),
		Comm:               cfg.Comm.String(),
		GVTInterval:        cfg.GVTInterval,
		CAThreshold:        cfg.CAThreshold,
		EndTime:            float64(cfg.EndTime),
		Seed:               cfg.Seed,
		QueueKind:          cfg.QueueKind,
		BatchSize:          cfg.BatchSize,
		CheckpointInterval: cfg.CheckpointInterval,
		MaxUncommitted:     cfg.MaxUncommitted,
		Faults:             cfg.FaultLabel,
	}
	if e.balancer != nil {
		rc.Balance = e.balancer.Name()
	}
	return metrics.BuildReport(rc, metrics.RunStatsOf(r), e.cfg.Metrics, cfg.Topology.WorkersPerNode)
}

// clusterEfficiency returns cumulative committed-so-far efficiency, the
// quantity CA-GVT thresholds on. Committed-so-far is approximated as
// processed − rolled-back, which the paper's computeEfficiency() also
// observes (events not yet reverted count as committed "so far").
func (e *Engine) clusterEfficiency() float64 {
	var processed, rolled int64
	for _, nd := range e.nodes {
		for _, w := range nd.workers {
			processed += w.St.Processed
			rolled += w.St.RolledBack
		}
	}
	if processed == 0 {
		return 1
	}
	return float64(processed-rolled) / float64(processed)
}
