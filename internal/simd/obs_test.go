package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/pkg/client"
)

// scrape fetches and parses /metrics from a test service.
func scrape(t *testing.T, url string) *obs.Snapshot {
	t.Helper()
	code, body, hdr := getBody(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	snap, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse /metrics: %v\n%s", err, body)
	}
	return snap
}

// mget reads one series or fails the test.
func mget(t *testing.T, snap *obs.Snapshot, name string, kv ...string) float64 {
	t.Helper()
	v, ok := snap.Get(name, kv...)
	if !ok {
		t.Fatalf("series %s%v missing from /metrics", name, kv)
	}
	return v
}

// TestMetricsEndpoint is the exposition acceptance test: run a job,
// re-submit it (cache hit), and check the service and engine series
// over HTTP — job states, submissions by outcome, cache counters,
// engine rounds/events bridged live from the progress hook — all in a
// document that parses cleanly.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})

	// Before any job: families exist with zero values.
	snap := scrape(t, ts.URL)
	if v := mget(t, snap, "simd_executions_total"); v != 0 {
		t.Fatalf("executions before any job = %v", v)
	}
	if v := mget(t, snap, "simd_jobs", "state", "done"); v != 0 {
		t.Fatalf("done jobs before any job = %v", v)
	}
	if v := snap.Sum("simd_build_info"); v != 1 {
		t.Fatalf("simd_build_info = %v, want 1", v)
	}
	if _, ok := snap.Get("simd_queue_capacity"); !ok {
		t.Fatal("no queue capacity gauge")
	}

	resp, sub := postJob(t, ts, fastBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job settled %s", st.State)
	}

	snap = scrape(t, ts.URL)
	if v := mget(t, snap, "simd_executions_total"); v != 1 {
		t.Fatalf("executions = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_submissions_total", "outcome", "admitted"); v != 1 {
		t.Fatalf("admitted = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_jobs_finished_total", "state", "done"); v != 1 {
		t.Fatalf("finished done = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_jobs", "state", "done"); v != 1 {
		t.Fatalf("jobs done = %v, want 1", v)
	}
	// Engine signals bridged per GVT round: a completed run must have
	// produced rounds and committed events.
	rounds := mget(t, snap, "simd_engine_gvt_rounds_total")
	committed := mget(t, snap, "simd_engine_events_committed_total")
	if rounds == 0 || committed == 0 {
		t.Fatalf("engine bridge flat: rounds %v committed %v", rounds, committed)
	}
	if v := mget(t, snap, "simd_engine_events_processed_total"); v < committed {
		t.Fatalf("processed %v < committed %v", v, committed)
	}
	if v := mget(t, snap, "simd_queue_wait_seconds_count"); v != 1 {
		t.Fatalf("queue wait observations = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_run_duration_seconds_count"); v != 1 {
		t.Fatalf("run duration observations = %v, want 1", v)
	}

	// Duplicate submission: a cache hit, visible in both the cache and
	// submission-outcome families, without a second execution.
	resp2, _ := postJob(t, ts, fastBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dup submit: %d", resp2.StatusCode)
	}
	snap = scrape(t, ts.URL)
	if v := mget(t, snap, "simd_cache_hits_total"); v != 1 {
		t.Fatalf("cache hits = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_submissions_total", "outcome", "cache_hit"); v != 1 {
		t.Fatalf("cache_hit outcome = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_executions_total"); v != 1 {
		t.Fatalf("executions after cache hit = %v, want 1", v)
	}
	if v := mget(t, snap, "simd_jobs", "state", "done"); v != 2 {
		t.Fatalf("jobs done after cache hit = %v, want 2", v)
	}

	// Exposition hygiene: every declared histogram is well-formed.
	for name, typ := range snap.Types {
		if typ != "histogram" {
			continue
		}
		inf, ok := snap.Get(name+"_bucket", "le", "+Inf")
		if !ok {
			t.Fatalf("%s: no +Inf bucket", name)
		}
		count, _ := snap.Get(name + "_count")
		if inf != count {
			t.Fatalf("%s: +Inf %v != count %v", name, inf, count)
		}
	}
}

// TestMetricsConcurrentScrape hammers the registry from concurrent
// submissions and scrapers at once; under -race this pins the
// host-parallel contract of the whole bridge (the race-enabled simd
// suite is a tier-1 CI gate).
func TestMetricsConcurrentScrape(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 4, QueueDepth: 64})
	const submitters, each = 4, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrape(t, ts.URL)
				}
			}
		}()
	}
	var subWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func(g int) {
			defer subWG.Done()
			for i := 0; i < each; i++ {
				// Mix distinct specs with duplicates so cache, dedup and
				// execution paths all run under scrape load.
				_, sub := postJob(t, ts, fmt.Sprintf(
					`{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":%d}`,
					900+(g*each+i)%5))
				if sub.ID != "" && !client.Terminal(sub.State) {
					waitDone(t, ts, sub.ID)
				}
			}
		}(g)
	}
	subWG.Wait()
	close(stop)
	wg.Wait()

	snap := scrape(t, ts.URL)
	var finished float64
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		finished += mget(t, snap, "simd_jobs_finished_total", "state", string(st))
	}
	// Deduped submissions coalesce onto an existing job instead of
	// creating one, so they don't add a finished job.
	deduped := mget(t, snap, "simd_submissions_total", "outcome", "deduped")
	if want := float64(submitters*each) - deduped; finished != want {
		t.Fatalf("finished jobs %v, want %v (%v deduped)", finished, want, deduped)
	}
	if v := mget(t, snap, "simd_executions_total"); v != float64(s.Executions()) {
		t.Fatalf("metrics executions %v != server %d", v, s.Executions())
	}
}

// TestStatsSchema pins the /stats additions: queue depth, busy workers
// and uptime ride along with the existing counters.
func TestStatsSchema(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})
	resp, sub := postJob(t, ts, fastBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitDone(t, ts, sub.ID)

	code, body, _ := getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"workers", "workers_busy", "queue_cap", "queue_len", "jobs",
		"by_state", "executions", "dedup_hits", "rejected", "cache",
		"started_at", "uptime_seconds",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("/stats missing %q: %s", field, body)
		}
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 || st.StartedAt.IsZero() {
		t.Fatalf("uptime not populated: %+v", st)
	}
}

// TestHealthzBuildInfo pins the identity fields cluster nodes are told
// apart by.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	code, body, _ := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Build.GoVersion == "" || h.StartedAt.IsZero() {
		t.Fatalf("healthz %+v", h)
	}
}

// TestJobStatusCarriesGVT pins that pollers see live progress without
// streaming: a finished job's status echoes its last round's GVT.
func TestJobStatusCarriesGVT(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	resp, sub := postJob(t, ts, fastBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.GVT <= 0 {
		t.Fatalf("done job status GVT = %v, want > 0: %+v", st.GVT, st)
	}
	if st.Rounds == 0 {
		t.Fatalf("done job status has no rounds: %+v", st)
	}
}
