// Command loadgen replays a configurable job mix against a simd daemon
// or simdcluster router at a target request rate and grades the answers
// against SLOs.
//
// Pacing is open-loop: request i is launched at T0 + i/rps regardless
// of how many earlier requests have completed, so a slow service sees
// the full arrival rate and its admission control (429 + Retry-After)
// is actually exercised rather than hidden by a closed feedback loop.
// A -max-inflight bound caps the damage a stalled service can do to the
// generator itself.
//
// The mix decides how content-addressing behaves under load:
//
//	duplicate: n requests over -distinct unique specs — the cache and
//	           in-flight dedup should absorb almost everything
//	distinct:  every request is a unique spec — every job must execute
//	mixed:     alternating draws from both pools
//
// On exit, a machine-readable JSON summary goes to stdout and a human
// table to stderr. Exit status: 0 all SLOs pass, 1 at least one SLO
// failed, 2 the run itself broke (unreachable service, timeout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/simdclient"
	"repro/pkg/client"
)

func main() {
	os.Exit(run())
}

type options struct {
	addr        string
	n           int
	rps         float64
	mix         string
	distinct    int
	seedBase    uint64
	model       string
	endTime     float64
	maxInflight int
	retries     int
	retryCap    time.Duration
	timeout     time.Duration

	sloCacheHitMin float64
	sloP99Max      time.Duration
	sloMin429      int
	sloMax429Rate  float64
	sloExactExecs  int
	sloMaxLost     int
	sloMaxFailed   int
}

func run() int {
	var o options
	flag.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "service base URL")
	flag.IntVar(&o.n, "n", 100, "total requests to issue")
	flag.Float64Var(&o.rps, "rps", 50, "target request rate (open-loop)")
	flag.StringVar(&o.mix, "mix", "duplicate", "job mix: duplicate | distinct | mixed")
	flag.IntVar(&o.distinct, "distinct", 4, "unique specs in the duplicate pool")
	flag.Uint64Var(&o.seedBase, "seed-base", 1, "base RNG seed for generated specs")
	flag.StringVar(&o.model, "model", "phold", "spec model")
	flag.Float64Var(&o.endTime, "end-time", 10, "spec virtual end time")
	flag.IntVar(&o.maxInflight, "max-inflight", 64, "max requests in flight")
	flag.IntVar(&o.retries, "queue-retries", 16, "429 answers absorbed per request before it counts as failed")
	flag.DurationVar(&o.retryCap, "retry-after-cap", 5*time.Second, "cap on an honored Retry-After sleep")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "whole-run deadline")
	flag.Float64Var(&o.sloCacheHitMin, "slo-cache-hit-min", -1, "SLO: min cache-hit ratio (served without execution); -1 disables")
	flag.DurationVar(&o.sloP99Max, "slo-p99-max", 0, "SLO: max p99 end-to-end latency; 0 disables")
	flag.IntVar(&o.sloMin429, "slo-min-429", -1, "SLO: min honored 429 answers; -1 disables")
	flag.Float64Var(&o.sloMax429Rate, "slo-max-429-rate", -1, "SLO: max 429s per submit attempt; -1 disables")
	flag.IntVar(&o.sloExactExecs, "slo-exact-executions", -1, "SLO: exact engine executions observed via /stats; -1 disables")
	flag.IntVar(&o.sloMaxLost, "slo-max-lost", 0, "SLO: max lost results (always checked)")
	flag.IntVar(&o.sloMaxFailed, "slo-max-failed", 0, "SLO: max failed requests (always checked)")
	flag.Parse()

	if o.n <= 0 || o.rps <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -n and -rps must be positive")
		return 2
	}
	specs, err := buildMix(o.mix, o.n, o.distinct, o.seedBase, o.model, o.endTime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()

	api := simdclient.New(o.addr)
	c := client.New(o.addr)

	execsBefore, statsOK := executions(ctx, api)

	sum, err := fire(ctx, c, specs, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}

	if statsOK {
		if execsAfter, ok := executions(ctx, api); ok {
			d := execsAfter - execsBefore
			sum.ExecutionsDelta = &d
		}
	}

	sum.SLOs = evalSLOs(sum, o)
	printHuman(os.Stderr, sum)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(sum)

	for _, s := range sum.SLOs {
		if !s.OK {
			return 1
		}
	}
	return 0
}

// executions reads the service's engine-execution counter from /stats.
func executions(ctx context.Context, api *simdclient.Client) (int64, bool) {
	var stats struct {
		Executions int64 `json:"executions"`
	}
	if err := api.Call(ctx, http.MethodGet, "/stats", nil, &stats); err != nil {
		return 0, false
	}
	return stats.Executions, true
}

// buildMix generates the request sequence. Specs are plain JSON maps so
// loadgen exercises the service's own canonicalization, like any
// external client would.
func buildMix(mix string, n, distinct int, seedBase uint64, model string, endTime float64) ([]any, error) {
	if distinct <= 0 {
		return nil, fmt.Errorf("-distinct must be positive, got %d", distinct)
	}
	mk := func(seed uint64) any {
		return map[string]any{"model": model, "end_time": endTime, "seed": seed}
	}
	specs := make([]any, n)
	for i := range specs {
		switch mix {
		case "duplicate":
			specs[i] = mk(seedBase + uint64(i%distinct))
		case "distinct":
			specs[i] = mk(seedBase + uint64(i))
		case "mixed":
			if i%2 == 0 {
				specs[i] = mk(seedBase + uint64((i/2)%distinct))
			} else {
				// Offset far past any duplicate-pool seed.
				specs[i] = mk(seedBase + 1_000_000 + uint64(i))
			}
		default:
			return nil, fmt.Errorf("unknown -mix %q (want duplicate | distinct | mixed)", mix)
		}
	}
	return specs, nil
}

// result is one request's measured outcome.
type result struct {
	latency    time.Duration
	cacheHit   bool // served without a fresh execution (cache_hit_now or deduped_now)
	storeHit   bool
	rejected   int // 429 answers absorbed
	honored    int // of those, how many slept the server's positive hint
	err        error
	reportSize int
}

// fire replays specs open-loop and aggregates a Summary.
func fire(ctx context.Context, c *client.Client, specs []any, o options) (*Summary, error) {
	results := make([]result, len(specs))
	sem := make(chan struct{}, o.maxInflight)
	interval := time.Duration(float64(time.Second) / o.rps)
	start := time.Now()

	var wg sync.WaitGroup
	for i, spec := range specs {
		// Open-loop: wait for this request's scheduled slot, not for
		// earlier requests to finish.
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, fmt.Errorf("run deadline hit while pacing (%d/%d launched): %w", i, len(specs), ctx.Err())
			}
		}
		wg.Add(1)
		go func(idx int, spec any) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results[idx].err = ctx.Err()
				return
			}
			results[idx] = oneRequest(ctx, c, spec, o)
		}(i, spec)
	}
	wg.Wait()
	elapsed := time.Since(start)

	return summarize(results, elapsed), nil
}

// oneRequest runs submit(+retry)→await→report and measures it
// end-to-end: latency is first submit attempt to settled report.
func oneRequest(ctx context.Context, c *client.Client, spec any, o options) result {
	var res result
	t0 := time.Now()
	var sub client.Submission
	for {
		var err error
		sub, err = c.Submit(ctx, spec)
		if err == nil {
			break
		}
		var qf *client.QueueFullError
		if !errors.As(err, &qf) || res.rejected >= o.retries {
			res.err = err
			return res
		}
		res.rejected++
		d := qf.RetryAfter
		if qf.Hinted && d > 0 {
			// Honoring the hint means actually sleeping it (capped).
			if d > o.retryCap {
				d = o.retryCap
			}
			res.honored++
		} else {
			d = 250 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			res.err = ctx.Err()
			return res
		}
	}
	res.cacheHit = sub.CacheHitNow || sub.DedupedNow
	res.storeHit = sub.StoreHit

	st, err := c.Await(ctx, sub.ID)
	if err != nil {
		res.err = err
		return res
	}
	res.storeHit = res.storeHit || st.StoreHit
	report, err := c.Report(ctx, st.ID)
	if err != nil {
		res.err = err
		return res
	}
	res.reportSize = len(report)
	res.latency = time.Since(t0)
	return res
}

// SLOResult grades one SLO.
type SLOResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Summary is the machine-readable run summary printed to stdout.
type Summary struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Lost is requests that produced neither a result nor an error —
	// with a correct generator and service, always zero.
	Lost       int     `json:"lost"`
	DurationS  float64 `json:"duration_s"`
	Throughput float64 `json:"throughput_rps"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`

	// CacheHits counts submissions served without a fresh engine
	// execution (result-cache hit or in-flight dedup); the ratio is over
	// completed requests.
	CacheHits     int     `json:"cache_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	StoreHits     int     `json:"store_hits"`
	StoreHitRatio float64 `json:"store_hit_ratio"`

	Rejected429 int     `json:"rejected_429"`
	Honored429  int     `json:"honored_429"`
	Rate429     float64 `json:"rate_429"` // 429s per submit attempt

	// ExecutionsDelta is the service-side engine-execution count change
	// over the run (from /stats); nil when /stats was unavailable.
	ExecutionsDelta *int64 `json:"executions_delta,omitempty"`

	Errors map[string]int `json:"errors,omitempty"`
	SLOs   []SLOResult    `json:"slos"`
}

// summarize folds per-request results into the run summary.
func summarize(results []result, elapsed time.Duration) *Summary {
	sum := &Summary{Requests: len(results), DurationS: elapsed.Seconds(), Errors: map[string]int{}}
	var latencies []time.Duration
	for _, r := range results {
		sum.Rejected429 += r.rejected
		sum.Honored429 += r.honored
		if r.err != nil {
			sum.Failed++
			sum.Errors[errClass(r.err)]++
			continue
		}
		if r.latency == 0 && r.reportSize == 0 {
			sum.Lost++
			continue
		}
		sum.Completed++
		latencies = append(latencies, r.latency)
		if r.cacheHit {
			sum.CacheHits++
		}
		if r.storeHit {
			sum.StoreHits++
		}
	}
	if sum.Completed > 0 {
		sum.CacheHitRatio = float64(sum.CacheHits) / float64(sum.Completed)
		sum.StoreHitRatio = float64(sum.StoreHits) / float64(sum.Completed)
	}
	if elapsed > 0 {
		sum.Throughput = float64(sum.Completed) / elapsed.Seconds()
	}
	attempts := sum.Completed + sum.Failed + sum.Rejected429
	if attempts > 0 {
		sum.Rate429 = float64(sum.Rejected429) / float64(attempts)
	}
	sum.LatencyP50Ms = ms(percentile(latencies, 50))
	sum.LatencyP95Ms = ms(percentile(latencies, 95))
	sum.LatencyP99Ms = ms(percentile(latencies, 99))
	return sum
}

// errClass buckets an error for the summary's error table.
func errClass(err error) string {
	switch {
	case errors.Is(err, client.ErrQueueFull):
		return "queue_full_exhausted"
	case errors.Is(err, client.ErrDeadline):
		return "job_deadline"
	case errors.Is(err, client.ErrCancelled):
		return "cancelled"
	case errors.Is(err, client.ErrNotFound):
		return "not_found"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "run_timeout"
	}
	var jf *client.JobFailedError
	if errors.As(err, &jf) {
		return "job_failed"
	}
	return "transport"
}

// percentile is the nearest-rank percentile of ds (sorted in place).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(float64(len(ds))*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(ds) {
		rank = len(ds) - 1
	}
	return ds[rank]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// evalSLOs grades the summary against the configured SLOs. Lost and
// failed ceilings are always graded; the rest only when enabled.
func evalSLOs(sum *Summary, o options) []SLOResult {
	var slos []SLOResult
	grade := func(name string, ok bool, detail string) {
		slos = append(slos, SLOResult{Name: name, OK: ok, Detail: detail})
	}
	grade("lost", sum.Lost <= o.sloMaxLost,
		fmt.Sprintf("%d lost results (max %d)", sum.Lost, o.sloMaxLost))
	grade("failed", sum.Failed <= o.sloMaxFailed,
		fmt.Sprintf("%d failed requests (max %d)", sum.Failed, o.sloMaxFailed))
	if o.sloCacheHitMin >= 0 {
		grade("cache_hit_ratio", sum.CacheHitRatio >= o.sloCacheHitMin,
			fmt.Sprintf("%.3f (min %.3f)", sum.CacheHitRatio, o.sloCacheHitMin))
	}
	if o.sloP99Max > 0 {
		grade("latency_p99", sum.LatencyP99Ms <= ms(o.sloP99Max),
			fmt.Sprintf("%.1fms (max %s)", sum.LatencyP99Ms, o.sloP99Max))
	}
	if o.sloMin429 >= 0 {
		grade("honored_429", sum.Honored429 >= o.sloMin429,
			fmt.Sprintf("%d honored (min %d)", sum.Honored429, o.sloMin429))
	}
	if o.sloMax429Rate >= 0 {
		grade("rate_429", sum.Rate429 <= o.sloMax429Rate,
			fmt.Sprintf("%.3f per attempt (max %.3f)", sum.Rate429, o.sloMax429Rate))
	}
	if o.sloExactExecs >= 0 {
		if sum.ExecutionsDelta == nil {
			grade("executions", false, "/stats unavailable; cannot verify execution count")
		} else {
			grade("executions", *sum.ExecutionsDelta == int64(o.sloExactExecs),
				fmt.Sprintf("%d engine executions (want exactly %d)", *sum.ExecutionsDelta, o.sloExactExecs))
		}
	}
	return slos
}

// printHuman renders the operator-facing table.
func printHuman(w *os.File, sum *Summary) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "requests\t%d\t(%d completed, %d failed, %d lost)\n",
		sum.Requests, sum.Completed, sum.Failed, sum.Lost)
	fmt.Fprintf(tw, "duration\t%.2fs\t%.1f done/s\n", sum.DurationS, sum.Throughput)
	fmt.Fprintf(tw, "latency\tp50 %.1fms\tp95 %.1fms\tp99 %.1fms\n",
		sum.LatencyP50Ms, sum.LatencyP95Ms, sum.LatencyP99Ms)
	fmt.Fprintf(tw, "cache\t%d hits\tratio %.3f\t(store %d / %.3f)\n",
		sum.CacheHits, sum.CacheHitRatio, sum.StoreHits, sum.StoreHitRatio)
	fmt.Fprintf(tw, "backpressure\t%d x 429\t%d honored\trate %.3f\n",
		sum.Rejected429, sum.Honored429, sum.Rate429)
	if sum.ExecutionsDelta != nil {
		fmt.Fprintf(tw, "executions\t%d\t(service-side delta)\n", *sum.ExecutionsDelta)
	}
	for class, n := range sum.Errors {
		fmt.Fprintf(tw, "error\t%s\tx%d\n", class, n)
	}
	for _, s := range sum.SLOs {
		verdict := "PASS"
		if !s.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "slo\t%s\t%s\t%s\n", s.Name, verdict, s.Detail)
	}
	tw.Flush()
}
