package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// engineSpec is one engine workload: a PHOLD configuration run many
// times in a row, each repetition on its own seed derived from -seed.
type engineSpec struct {
	name         string
	conservative bool // the null-message engine instead of Time Warp
	top          cluster.Topology
	phase        phold.Phase
	gvt          core.GVTKind
	end          float64
	// repSeconds is what one repetition costs on the 2-core reference
	// host; it only turns -seconds into a repetition count, so the count
	// (and with it every exact metric) is a function of the flags alone.
	repSeconds float64
}

func engineSpecs(smoke bool) []engineSpec {
	comp, comm := phold.ComputationDominated(), phold.CommunicationDominated()
	if smoke {
		small := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
		return []engineSpec{
			{name: "tw-comp", top: small, phase: comp, gvt: core.GVTMattern, end: 10},
			{name: "tw-comm", top: small, phase: comm, gvt: core.GVTControlled, end: 10},
			{name: "cons-nullmsg", conservative: true, top: small, phase: comp, end: 3},
		}
	}
	return []engineSpec{
		{name: "tw-comp", top: cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16},
			phase: comp, gvt: core.GVTMattern, end: 100, repSeconds: 1.1},
		{name: "tw-comm", top: cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 8},
			phase: comm, gvt: core.GVTControlled, end: 150, repSeconds: 1.15},
		{name: "cons-nullmsg", conservative: true, top: cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16},
			phase: comp, end: 8, repSeconds: 0.95},
	}
}

// reps is how many timed repetitions a run of the given length makes;
// the untimed warm-up repetition takes one slot of the budget.
func (w engineSpec) reps(seconds float64) int {
	if w.repSeconds == 0 {
		return 2 // smoke
	}
	return max(2, int(math.Round(seconds/w.repSeconds))-1)
}

// engine is what the two engines share: the benchmark drives both
// through it and reads the stats.Run they return.
type engine interface {
	Run() (*stats.Run, error)
	Report(*stats.Run) *metrics.Report
}

// newEngine builds the engine under test from the generated config.
func (w engineSpec) newEngine(factory core.ModelFactory, seed uint64) engine {
	if w.conservative {
		la := phold.Params{Topology: w.top, Base: w.phase}
		la.Defaults()
		return conservative.New(conservative.Config{
			Topology:  w.top,
			Sync:      conservative.SyncNullMsg,
			Lookahead: vtime.Time(la.Lookahead),
			EndTime:   vtime.Time(w.end),
			Seed:      seed,
			Model:     factory,
		})
	}
	return core.New(core.Config{
		Topology:    w.top,
		GVT:         w.gvt,
		GVTInterval: 4,
		CAThreshold: 0.80,
		Comm:        core.CommDedicated,
		EndTime:     vtime.Time(w.end),
		Seed:        seed,
		Model:       factory,
	})
}

// layer is the module name spans and metrics of this workload's engine
// are filed under.
func (w engineSpec) layer() string {
	if w.conservative {
		return "conservative"
	}
	return "core"
}

// modelTimer sums the host time the engine spends inside the model,
// through the core.ModelFactory seam. The kernel runs one simulated
// thread at a time, but those threads are goroutines, so the sums are
// atomic.
type modelTimer struct {
	initNS, onEventNS, snapshotNS, restoreNS             atomic.Int64
	initCalls, onEventCalls, snapshotCalls, restoreCalls atomic.Int64
}

// wrap decorates factory so every model callback is timed.
func (t *modelTimer) wrap(factory core.ModelFactory) core.ModelFactory {
	return func(lp event.LPID, total int) core.Model {
		return &timedModel{Model: factory(lp, total), t: t}
	}
}

type timedModel struct {
	core.Model
	t   *modelTimer
	ctx timedCtx // reused for every callback: one LP's callbacks never overlap
}

// timedCtx forwards to the engine's context and sums the time spent
// there. Send and Spin are calls back into the engine — Spin parks the
// simulated thread while others run — so that time is the engine's, and
// the decorator takes it off the model's.
type timedCtx struct {
	core.Context
	engineNS int64
}

func (c *timedCtx) Send(dst event.LPID, delay vtime.Time, kind uint16, data []byte) {
	start := time.Now()
	c.Context.Send(dst, delay, kind, data)
	c.engineNS += int64(time.Since(start))
}

func (c *timedCtx) Spin(units int) {
	start := time.Now()
	c.Context.Spin(units)
	c.engineNS += int64(time.Since(start))
}

func (m *timedModel) Init(ctx core.Context) {
	m.ctx = timedCtx{Context: ctx}
	start := time.Now()
	m.Model.Init(&m.ctx)
	m.t.initNS.Add(int64(time.Since(start)) - m.ctx.engineNS)
	m.t.initCalls.Add(1)
}

func (m *timedModel) OnEvent(ctx core.Context, ev *event.Event) {
	m.ctx = timedCtx{Context: ctx}
	start := time.Now()
	m.Model.OnEvent(&m.ctx, ev)
	m.t.onEventNS.Add(int64(time.Since(start)) - m.ctx.engineNS)
	m.t.onEventCalls.Add(1)
}

func (m *timedModel) Snapshot() any {
	start := time.Now()
	s := m.Model.Snapshot()
	m.t.snapshotNS.Add(int64(time.Since(start)))
	m.t.snapshotCalls.Add(1)
	return s
}

func (m *timedModel) Restore(s any) {
	start := time.Now()
	m.Model.Restore(s)
	m.t.restoreNS.Add(int64(time.Since(start)))
	m.t.restoreCalls.Add(1)
}

// engineRep is what one repetition measured.
type engineRep struct {
	setup   time.Duration // model build + oracle run + engine construction
	build   time.Duration // engine construction alone (core.New / conservative.New)
	run     time.Duration // Engine.Run alone
	oracle  time.Duration // seq.Run alone
	mallocs uint64        // heap allocations across New+Run
	bytes   uint64        // bytes allocated across New+Run
	stats   *stats.Run
	failure string // why the repetition failed a check; empty when it passed
	model   *modelTimer

	// Traced only: Engine.Report, Report.MarshalStable and the size of
	// the bytes it produced.
	reportTime, marshalTime time.Duration
	reportSize              int
}

// runRep runs one repetition: the sequential oracle on the generated
// model, then the engine under test, then the comparison of the two
// commit streams. tr is nil for an untraced repetition.
func (w engineSpec) runRep(seed uint64, tr *tracer, traceID string, corrupt bool) engineRep {
	var rep engineRep
	root := tr.begin("bench.rep", traceID, 0)
	defer tr.end(root)

	setupStart := time.Now()
	var factory core.ModelFactory
	tr.timed("phold.new", traceID, root, func() {
		factory = phold.New(phold.Params{Topology: w.top, Base: w.phase})
	})
	var oracleEng *seq.Engine
	tr.timed("seq.new", traceID, root, func() {
		oracleEng = seq.New(factory, w.top.TotalLPs(), vtime.Time(w.end), seed)
	})
	var oracle *seq.Result
	_, rep.oracle = tr.timed("seq.run", traceID, root, func() { oracle = oracleEng.Run() })
	if corrupt {
		oracle.Checksum ^= 1
	}
	if tr != nil {
		rep.model = &modelTimer{}
		factory = rep.model.wrap(factory)
	}
	rep.setup = time.Since(setupStart)

	// A GC fence so the previous repetition's garbage is not billed to
	// this one; it is the benchmark's own cost and sits outside both the
	// set-up and the timed region.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var eng engine
	var newSpan, runSpan int64
	newSpan, rep.build = tr.timed(w.layer()+".new", traceID, root, func() { eng = w.newEngine(factory, seed) })
	rep.setup += rep.build
	var r *stats.Run
	var err error
	runSpan, rep.run = tr.timed(w.layer()+".run", traceID, root, func() { r, err = eng.Run() })
	runtime.ReadMemStats(&after)
	rep.mallocs = after.Mallocs - before.Mallocs
	rep.bytes = after.TotalAlloc - before.TotalAlloc

	if m := rep.model; m != nil {
		tr.aggregate("phold.init", newSpan, 0, m.initNS.Load(), m.initCalls.Load())
		at := tr.aggregate("phold.on_event", runSpan, 0, m.onEventNS.Load(), m.onEventCalls.Load())
		at = tr.aggregate("phold.snapshot", runSpan, at, m.snapshotNS.Load(), m.snapshotCalls.Load())
		tr.aggregate("phold.restore", runSpan, at, m.restoreNS.Load(), m.restoreCalls.Load())
	}

	switch {
	case err != nil:
		rep.failure = fmt.Sprintf("seed %d: run: %v", seed, err)
		return rep
	case r.CommitChecksum != oracle.Checksum:
		rep.failure = fmt.Sprintf("seed %d: commit checksum %016x, oracle %016x", seed, r.CommitChecksum, oracle.Checksum)
	case r.Workers.Committed != oracle.Processed:
		rep.failure = fmt.Sprintf("seed %d: committed %d, oracle %d", seed, r.Workers.Committed, oracle.Processed)
	}
	rep.stats = r

	if tr != nil {
		var report *metrics.Report
		_, rep.reportTime = tr.timed("metrics.build_report", traceID, root, func() { report = eng.Report(r) })
		var data []byte
		_, rep.marshalTime = tr.timed("metrics.marshal", traceID, root, func() { data, err = report.MarshalStable() })
		rep.reportSize = len(data)
		if canon, cerr := metrics.CanonicalJSON(data); rep.failure == "" && (err != nil || cerr != nil || !bytes.Equal(canon, data)) {
			rep.failure = fmt.Sprintf("seed %d: report does not marshal to canonical JSON (%v, %v)", seed, err, cerr)
		}
	}
	return rep
}

// runEngine runs one engine workload and returns its result.
func runEngine(w engineSpec, o options) workloadResult {
	res := newResult(w.name, o)
	n := w.reps(o.seconds)
	if o.trace {
		// The probes take part of the run; the rest is split between
		// untraced and traced repetitions of the same seeds.
		n = max(2, n*3/8)
	}
	tr := o.tracer

	fail := func(msg string) {
		res.Failed++
		res.fail(msg)
	}
	check := func(rep engineRep) {
		res.Attempted++
		if rep.failure != "" {
			fail(rep.failure)
		}
	}

	// Warm-up: the first repetition's seed run once untimed, so lazy
	// runtime set-up is not billed to it — and run again as the first
	// timed repetition, where it must return the identical stats.Run.
	first := subSeed(o.seed, streamEngine, 0)
	warm := w.runRep(first, nil, "", false)
	check(warm)

	var reps, traced []engineRep
	for i := 0; i < n; i++ {
		if i >= minReps && o.overBudget() {
			res.Note = fmt.Sprintf("stopped after %d of %d repetitions: over the time budget", i, n)
			break
		}
		seed := subSeed(o.seed, streamEngine, uint64(i))
		rep := w.runRep(seed, nil, "", o.corrupt && i == 0)
		check(rep)
		if i == 0 && rep.stats != nil && warm.stats != nil && *rep.stats != *warm.stats {
			fail(fmt.Sprintf("seed %d: two runs of one config returned different stats.Run", seed))
		}
		reps = append(reps, rep)
		if tr != nil {
			t := w.runRep(seed, tr, fmt.Sprintf("%s/rep%d", w.name, i), false)
			check(t)
			if t.stats != nil && rep.stats != nil && *t.stats != *rep.stats {
				fail(fmt.Sprintf("seed %d: traced and untraced runs returned different stats.Run", seed))
			}
			traced = append(traced, t)
		}
	}

	if !o.trace {
		res.EndToEnd = engineEndToEnd(append([]engineRep{warm}, reps...), reps)
		return res
	}
	res.PerLayer = enginePerLayer(w, reps, traced)
	return res
}

// engineEndToEnd folds repetitions into the end-to-end metrics. Host
// rates are medians over repetitions; counts (virtual rate, allocations)
// are totals over the fixed seed set, so they repeat exactly. all adds
// the warm-up repetition, whose set-up is a sample like any other.
func engineEndToEnd(all, reps []engineRep) map[string]value {
	var evRate, jobRate, setup []float64
	var committed, mallocs, bytes float64
	var virt float64
	for _, r := range reps {
		if r.stats == nil {
			continue
		}
		c := float64(r.stats.Workers.Committed)
		evRate = append(evRate, c/r.run.Seconds())
		jobRate = append(jobRate, 1/(r.build+r.run).Seconds())
		committed += c
		virt += r.stats.WallTime.Seconds()
		mallocs += float64(r.mallocs)
		bytes += float64(r.bytes)
	}
	for _, r := range all {
		setup = append(setup, r.setup.Seconds())
	}
	return map[string]value{
		"events_per_s":      medianValue(evRate, "1/s"),
		"virt_events_per_s": exactValue(committed/virt, "1/s", len(reps)),
		"allocs_per_event":  exactValue(mallocs/committed, "count", len(reps)),
		"bytes_per_event":   exactValue(bytes/committed, "B", len(reps)),
		"jobs_per_s":        medianValue(jobRate, "1/s"),
		"setup_s":           medianValue(setup, "s"),
	}
}

// enginePerLayer folds the untraced and traced repetitions of a traced
// run into the per-layer metrics this workload enters.
func enginePerLayer(w engineSpec, reps, traced []engineRep) map[string]value {
	out := make(map[string]value)
	var total metrics.RunStats
	var poolNews, poolRecycled float64
	for _, r := range reps {
		if r.stats == nil {
			continue
		}
		addRunStats(&total, runStatsOf(r.stats))
		poolNews += float64(r.stats.PoolNews)
		poolRecycled += float64(r.stats.PoolRecycled)
	}
	n := len(reps)
	countMetrics(out, total, n)
	out["event.pool_news"] = exactValue(poolNews, "count", n)
	out["event.pool_recycled"] = exactValue(poolRecycled, "count", n)

	var newMS, runMS, seqMS, seqRate, onEventNS, snapNS, share, buildUS, marshUS, reportB []float64
	var onEventCalls, snapCalls, restoreCalls float64
	for _, r := range traced {
		if r.stats == nil {
			continue
		}
		newMS = append(newMS, float64(r.build)/1e6)
		runMS = append(runMS, float64(r.run)/1e6)
		seqMS = append(seqMS, float64(r.oracle)/1e6)
		seqRate = append(seqRate, float64(r.stats.Workers.Committed)/r.oracle.Seconds())
		m := r.model
		onEventCalls += float64(m.onEventCalls.Load())
		snapCalls += float64(m.snapshotCalls.Load())
		restoreCalls += float64(m.restoreCalls.Load())
		if c := m.onEventCalls.Load(); c > 0 {
			onEventNS = append(onEventNS, float64(m.onEventNS.Load())/float64(c))
		}
		if c := m.snapshotCalls.Load(); c > 0 {
			snapNS = append(snapNS, float64(m.snapshotNS.Load())/float64(c))
		}
		inModel := m.onEventNS.Load() + m.snapshotNS.Load() + m.restoreNS.Load()
		share = append(share, float64(inModel)/float64(r.run))
		buildUS = append(buildUS, float64(r.reportTime)/1e3)
		marshUS = append(marshUS, float64(r.marshalTime)/1e3)
		reportB = append(reportB, float64(r.reportSize))
	}
	out[w.layer()+".new_ms"] = medianValue(newMS, "ms")
	out[w.layer()+".run_ms"] = medianValue(runMS, "ms")
	out["seq.run_ms"] = medianValue(seqMS, "ms")
	out["seq.events_per_s"] = medianValue(seqRate, "1/s")
	out["phold.on_event_ns"] = medianValue(onEventNS, "ns")
	out["phold.on_event_calls"] = exactValue(onEventCalls, "count", len(traced))
	out["phold.snapshot_ns"] = medianValue(snapNS, "ns")
	out["phold.snapshot_calls"] = exactValue(snapCalls, "count", len(traced))
	out["phold.restore_calls"] = exactValue(restoreCalls, "count", len(traced))
	ps := medianValue(share, "frac")
	out["phold.share"] = ps
	out["core.run_self_share"] = value{Value: 1 - ps.Value, Unit: "frac", Q1: 1 - ps.Q3, Q3: 1 - ps.Q1, N: ps.N}
	out["metrics.build_report_us"] = medianValue(buildUS, "us")
	out["metrics.marshal_us"] = medianValue(marshUS, "us")
	out["metrics.report_bytes"] = medianValue(reportB, "B")

	// Same seed, untraced then traced, back to back: the ratio of the
	// two Run times is one sample of what tracing costs.
	var overhead []float64
	for i := range traced {
		if reps[i].stats != nil && traced[i].stats != nil {
			overhead = append(overhead, float64(traced[i].run)/float64(reps[i].run)-1)
		}
	}
	out["bench.trace_overhead_frac"] = medianValue(overhead, "frac")
	return out
}

// runStatsOf picks the counts the per-layer metrics report out of a
// stats.Run, into the report's own stats type, so the engine workloads
// (which hold a stats.Run) and the service workloads (which hold
// delivered reports) share one accumulator.
func runStatsOf(r *stats.Run) metrics.RunStats {
	w := &r.Workers
	return metrics.RunStats{
		Committed: w.Committed, Processed: w.Processed, RolledBack: w.RolledBack, Rollbacks: w.Rollbacks,
		AntiSent: w.AntiSent, Annihilated: w.Annihilated, GVTRounds: r.GVTRounds, SyncRounds: r.SyncRounds,
		BarrierWaitNs: int64(w.BarrierWait), IdleNs: int64(w.IdleTime), GVTTimeNs: int64(w.GVTTime),
		MPIMessages: r.MPIMessages, MPIBytes: r.MPIBytes, NullMessages: r.NullMessages,
	}
}

// addRunStats accumulates those counts.
func addRunStats(t *metrics.RunStats, r metrics.RunStats) {
	t.Committed += r.Committed
	t.Processed += r.Processed
	t.RolledBack += r.RolledBack
	t.Rollbacks += r.Rollbacks
	t.AntiSent += r.AntiSent
	t.Annihilated += r.Annihilated
	t.GVTRounds += r.GVTRounds
	t.SyncRounds += r.SyncRounds
	t.BarrierWaitNs += r.BarrierWaitNs
	t.IdleNs += r.IdleNs
	t.GVTTimeNs += r.GVTTimeNs
	t.MPIMessages += r.MPIMessages
	t.MPIBytes += r.MPIBytes
	t.NullMessages += r.NullMessages
}

// countMetrics files the engine-returned counts under their per-layer
// names; total is the sum over n runs. Both engines return these counts,
// so the core.* names are filled for the conservative engine too.
func countMetrics(out map[string]value, total metrics.RunStats, n int) {
	eff := 1.0
	if total.Processed > 0 {
		eff = float64(total.Committed) / float64(total.Processed)
	}
	count := func(name string, v int64) { out[name] = exactValue(float64(v), "count", n) }
	virtMS := func(name string, ns int64) { out[name] = exactValue(float64(ns)/1e6, "ms", n) }
	out["core.efficiency"] = exactValue(eff, "frac", n)
	count("core.processed", total.Processed)
	count("core.rollbacks", total.Rollbacks)
	count("core.rolled_back", total.RolledBack)
	count("core.anti_sent", total.AntiSent)
	count("core.annihilated", total.Annihilated)
	count("core.gvt_rounds", total.GVTRounds)
	count("core.sync_rounds", total.SyncRounds)
	virtMS("core.idle_virt_ms", total.IdleNs)
	virtMS("core.barrier_wait_virt_ms", total.BarrierWaitNs)
	virtMS("core.gvt_virt_ms", total.GVTTimeNs)
	count("mpi.messages", total.MPIMessages)
	out["mpi.bytes"] = exactValue(float64(total.MPIBytes), "B", n)
	count("conservative.null_messages", total.NullMessages)
	out["conservative.null_per_committed"] = exactValue(float64(total.NullMessages)/float64(total.Committed), "count", n)
}
