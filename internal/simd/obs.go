package simd

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// allStates enumerates the lifecycle states for per-state series, so a
// scrape always sees every state (zeros included) and dashboards don't
// have to deal with appearing/disappearing series.
var allStates = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// serviceObs is the server's observability surface: a Prometheus-style
// registry covering the service layer (queue, workers, cache,
// admission) and the engine layer (per-GVT-round signals bridged live
// from the metrics.Recorder progress hook).
//
// Service-side values the server already tracks — pool stats, cache
// stats, atomics — are exposed as func-backed instruments read at
// scrape time, so there is no double bookkeeping. Engine signals have
// no resident source (each run's recorder dies with the run), so the
// bridge accumulates per-round deltas into registry counters as the
// hook fires.
type serviceObs struct {
	reg *obs.Registry

	outcomes    map[string]*obs.Counter // simd_submissions_total by outcome, resolved once
	finished    map[State]*obs.Counter  // simd_jobs_finished_total by state, resolved once
	jobsByState *obs.GaugeVec           // state: current counts, refreshed per scrape
	queueWait   *obs.Histogram          // seconds from admission to pickup
	runDuration *obs.Histogram          // seconds from pickup to terminal state

	engRounds     *obs.Counter
	engProcessed  *obs.Counter
	engCommitted  *obs.Counter
	engRollbacks  *obs.Counter
	engRolledBack *obs.Counter
	engMigrations *obs.Counter
	gvtAdvance    *obs.Histogram // virtual time gained per GVT round
}

// newServiceObs builds the registry for a server. The server's pool,
// cache and counters must already exist (func-backed instruments hold
// references into them).
func newServiceObs(s *Server) *serviceObs {
	reg := obs.NewRegistry()
	o := &serviceObs{reg: reg, outcomes: map[string]*obs.Counter{}, finished: map[State]*obs.Counter{}}

	obs.RegisterBuildInfo(reg, "simd_build_info", obs.ReadBuild())
	reg.GaugeFunc("simd_start_time_seconds",
		"Unix time the service started.",
		func() float64 { return float64(s.started.Unix()) })
	reg.GaugeFunc("simd_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Admission and lifecycle.
	// Every series exists from the start (scraping as 0), resolved once.
	submissions := reg.CounterVec("simd_submissions_total",
		"Submissions by outcome: admitted (queued for execution), cache_hit, store_hit (cache hit filled from the persistent store), deduped (coalesced onto an in-flight job), rejected (queue full, HTTP 429).",
		"outcome")
	for _, oc := range []string{"admitted", "cache_hit", "store_hit", "deduped", "rejected"} {
		o.outcomes[oc] = submissions.With(oc)
	}
	jobsFinished := reg.CounterVec("simd_jobs_finished_total",
		"Jobs reaching a terminal state, by state.", "state")
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		o.finished[st] = jobsFinished.With(string(st))
	}
	o.jobsByState = reg.GaugeVec("simd_jobs",
		"Current jobs by lifecycle state.", "state")
	reg.OnScrape(func() {
		by := s.jobsByState()
		for _, st := range allStates {
			o.jobsByState.With(string(st)).Set(float64(by[string(st)]))
		}
	})
	reg.CounterFunc("simd_executions_total",
		"Engine runs actually started (cache hits and dedup merges bypass this).",
		func() float64 { return float64(s.executions.Load()) })
	reg.CounterFunc("simd_job_deadline_exceeded_total",
		"Jobs failed by the per-job wall-clock deadline.",
		func() float64 { return float64(s.deadlined.Load()) })
	reg.CounterFunc("simd_job_panics_total",
		"Engine panics recovered and converted into job failures.",
		func() float64 { return float64(s.panicked.Load()) })
	reg.GaugeFunc("simd_jobs_recovered",
		"Jobs re-enqueued from the journal at the last warm restart.",
		func() float64 { return float64(s.recovered.Load()) })

	// Queue and workers.
	reg.GaugeFunc("simd_queue_depth",
		"Jobs waiting in the bounded queue.",
		func() float64 { return float64(s.pool.Stats().QueueLen) })
	reg.GaugeFunc("simd_queue_capacity",
		"Bounded queue capacity; submissions past it are rejected.",
		func() float64 { return float64(s.pool.Stats().QueueCap) })
	reg.GaugeFunc("simd_workers",
		"Simulation worker goroutines.",
		func() float64 { return float64(s.pool.Stats().Workers) })
	reg.GaugeFunc("simd_workers_busy",
		"Workers currently executing a job.",
		func() float64 { return float64(s.pool.Stats().Busy) })
	o.queueWait = reg.Histogram("simd_queue_wait_seconds",
		"Wall time from admission to worker pickup.", obs.DefBuckets)
	o.runDuration = reg.Histogram("simd_run_duration_seconds",
		"Wall time from worker pickup to terminal state.", obs.DefBuckets)

	// Result cache.
	reg.CounterFunc("simd_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("simd_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.CounterFunc("simd_cache_evictions_total", "Result-cache LRU evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.GaugeFunc("simd_cache_entries", "Cached results.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("simd_cache_bytes", "Bytes of cached result data.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.GaugeFunc("simd_cache_budget_bytes", "Result-cache byte budget.",
		func() float64 { return float64(s.cache.Stats().Budget) })

	// Persistent store and journal, when configured. Func-backed like the
	// cache: the store keeps its own counters; scrapes just read them.
	if st := s.opts.Store; st != nil {
		reg.CounterFunc("simd_store_hits_total", "Persistent-store hits.",
			func() float64 { return float64(st.Stats().Hits) })
		reg.CounterFunc("simd_store_misses_total", "Persistent-store misses.",
			func() float64 { return float64(st.Stats().Misses) })
		reg.CounterFunc("simd_store_puts_total", "Results published to the persistent store.",
			func() float64 { return float64(st.Stats().Puts) })
		reg.CounterFunc("simd_store_put_errors_total", "Failed persistent-store writes.",
			func() float64 { return float64(st.Stats().PutErrors) })
		reg.CounterFunc("simd_store_quarantined_total",
			"Corrupt entries moved to quarantine on read.",
			func() float64 { return float64(st.Stats().Quarantined) })
		reg.CounterFunc("simd_store_evictions_total", "Persistent-store budget evictions.",
			func() float64 { return float64(st.Stats().Evictions) })
		reg.CounterFunc("simd_store_skipped_total",
			"Store operations bypassed while degraded (memory-only mode).",
			func() float64 { return float64(st.Stats().Skipped) })
		reg.CounterFunc("simd_store_degraded_events_total",
			"Transitions into degraded (memory-only) mode.",
			func() float64 { return float64(st.Stats().DegradedEvents) })
		reg.GaugeFunc("simd_store_degraded",
			"1 while the store is degraded to memory-only, else 0.",
			func() float64 {
				if st.Degraded() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("simd_store_entries", "Entries in the persistent store.",
			func() float64 { return float64(st.Stats().Entries) })
		reg.GaugeFunc("simd_store_bytes", "Bytes in the persistent store.",
			func() float64 { return float64(st.Stats().Bytes) })
		reg.GaugeFunc("simd_store_budget_bytes", "Persistent-store byte budget (0 = unbounded).",
			func() float64 { return float64(st.Stats().MaxBytes) })
	}
	if jl := s.opts.Journal; jl != nil {
		reg.CounterFunc("simd_journal_appends_total", "Journal records appended.",
			func() float64 { return float64(jl.Stats().Appends) })
		reg.CounterFunc("simd_journal_errors_total", "Failed journal appends.",
			func() float64 { return float64(jl.Stats().Errors) })
		reg.GaugeFunc("simd_journal_recovered",
			"Interrupted jobs found in the journal at open.",
			func() float64 { return float64(jl.Stats().Recovered) })
	}

	// Engine signals, bridged live from the per-round progress hook.
	o.engRounds = reg.Counter("simd_engine_gvt_rounds_total",
		"GVT rounds completed across all runs.")
	o.engProcessed = reg.Counter("simd_engine_events_processed_total",
		"Events processed (optimistically) across all runs.")
	o.engCommitted = reg.Counter("simd_engine_events_committed_total",
		"Events committed (processed minus rolled back) across all runs.")
	o.engRollbacks = reg.Counter("simd_engine_rollbacks_total",
		"Rollback episodes across all runs.")
	o.engRolledBack = reg.Counter("simd_engine_events_rolled_back_total",
		"Events undone by rollbacks across all runs.")
	o.engMigrations = reg.Counter("simd_engine_lp_migrations_total",
		"LP migrations committed at GVT points across all runs.")
	o.gvtAdvance = reg.Histogram("simd_engine_gvt_advance",
		"Virtual time gained per GVT round.", obs.ExpBuckets(0.0625, 2, 12))

	return o
}

// bridgeProgress folds one per-round progress update into the live
// engine counters. The update's quantities are cumulative per run, so
// the bridge adds the delta against the previous round, carried by the
// caller (one engine goroutine per run — no locking needed on prev).
// Committed can shrink within a run (a rollback undoes previously
// processed events), so negative deltas are clamped: registry counters
// stay monotone and the small undercount self-corrects on the next
// advancing round.
func (o *serviceObs) bridgeProgress(prev, u metrics.ProgressUpdate) {
	o.engRounds.Inc()
	o.engProcessed.Add(max(0, u.Processed-prev.Processed))
	o.engCommitted.Add(max(0, u.Committed-prev.Committed))
	o.engRollbacks.Add(max(0, u.Rollbacks-prev.Rollbacks))
	o.engRolledBack.Add(max(0, u.RolledBack-prev.RolledBack))
	o.engMigrations.Add(max(0, u.Migrations-prev.Migrations))
	if d := u.GVT - prev.GVT; d >= 0 {
		o.gvtAdvance.Observe(d)
	}
}
