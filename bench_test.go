// Package repro's one benchmark: BenchmarkTelemetry, the gate that
// sampling and tracing record outside simulated cost. `make bench` and CI
// run it. The per-figure configurations are run against the sequential
// oracle by internal/harness, their virtual-time numbers are pinned by
// cmd/bench (BENCH_baseline.json), and what a run costs on the host is
// measured by benchmark/.
package repro

import (
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/trace"
)

// telemetryRun executes one CA-GVT mixed run (2 nodes x 4 workers x 16
// LPs, the 10-15 mix) with the given telemetry attachments and returns
// its result.
func telemetryRun(b *testing.B, rec *metrics.Recorder, tw *trace.Writer) *stats.Run {
	b.Helper()
	eng, err := run.New(run.Spec{
		Scenario: "mixed", Nodes: 2, WorkersPerNode: 4, LPsPerWorker: 16,
		GVT: "ca-gvt", GVTInterval: 4, EndTime: 15, Seed: 1,
	}, run.Attach{Metrics: rec, Trace: tw})
	if err != nil {
		b.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTelemetry compares the committed-event rate with the sampler
// and trace off, sampler on, and sampler+trace on. Telemetry records
// outside simulated cost, so the virtual-time rate must stay within the
// 5% acceptance bound — the "overhead-pct" metric reports the measured
// drift against the bare run, and the benchmark fails if it reaches 5%.
func BenchmarkTelemetry(b *testing.B) {
	baseline := telemetryRun(b, nil, nil).EventRate()
	if baseline <= 0 {
		b.Fatal("bare run has no event rate")
	}
	check := func(b *testing.B, r *stats.Run) {
		rate := r.EventRate()
		drift := math.Abs(rate-baseline) / baseline
		if drift >= 0.05 {
			b.Fatalf("telemetry overhead %.2f%% >= 5%% (rate %.4g vs bare %.4g)",
				100*drift, rate, baseline)
		}
		b.ReportMetric(rate, "virt-ev/s")
		b.ReportMetric(100*drift, "overhead-pct")
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		var r *stats.Run
		for i := 0; i < b.N; i++ {
			r = telemetryRun(b, nil, nil)
		}
		check(b, r)
	})
	b.Run("sampler", func(b *testing.B) {
		b.ReportAllocs()
		var r *stats.Run
		for i := 0; i < b.N; i++ {
			r = telemetryRun(b, metrics.NewRecorder(), nil)
		}
		check(b, r)
	})
	b.Run("sampler+trace", func(b *testing.B) {
		b.ReportAllocs()
		var r *stats.Run
		for i := 0; i < b.N; i++ {
			r = telemetryRun(b, metrics.NewRecorder(), trace.NewWriter(io.Discard))
		}
		check(b, r)
	})
	// progress+bridge reproduces the simd daemon's live-metrics path: a
	// per-round OnProgress hook that folds deltas into an atomic
	// Prometheus-style registry and appends to a mutex-guarded stream
	// history (what Job.publish does). The <5% bound gates the
	// observability bridge the same way it gates the sampler.
	b.Run("progress+bridge", func(b *testing.B) {
		b.ReportAllocs()
		var r *stats.Run
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			rounds := reg.Counter("simd_engine_gvt_rounds_total", "")
			processed := reg.Counter("simd_engine_events_processed_total", "")
			committed := reg.Counter("simd_engine_events_committed_total", "")
			rollbacks := reg.Counter("simd_engine_rollbacks_total", "")
			advance := reg.Histogram("simd_engine_gvt_advance", "", obs.ExpBuckets(0.0625, 2, 12))
			var mu sync.Mutex
			var history []metrics.ProgressUpdate
			var prev metrics.ProgressUpdate
			rec := metrics.NewRecorder()
			clamp := func(v int64) int64 {
				if v < 0 {
					return 0
				}
				return v
			}
			rec.OnProgress = func(u metrics.ProgressUpdate) {
				rounds.Inc()
				processed.Add(clamp(u.Processed - prev.Processed))
				committed.Add(clamp(u.Committed - prev.Committed))
				rollbacks.Add(clamp(u.Rollbacks - prev.Rollbacks))
				if d := u.GVT - prev.GVT; d >= 0 {
					advance.Observe(d)
				}
				prev = u
				mu.Lock()
				history = append(history, u)
				mu.Unlock()
			}
			r = telemetryRun(b, rec, nil)
			if len(history) == 0 || rounds.Value() == 0 {
				b.Fatal("progress bridge never fired")
			}
		}
		check(b, r)
	})
}
