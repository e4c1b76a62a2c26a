package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/pkg/client"
)

// TestSubmitBodyMemo: a body submitted twice is addressed alike both
// times, the second time from the memo; a body that does not decode or
// does not address is refused alike every time and never memoised, and
// nor is one past specMemoBody.
func TestSubmitBodyMemo(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	body := `{"seed":3,"end_time":5,"nodes":1,"workers_per_node":2,"lps_per_worker":4}`
	first, err := s.submitBody(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first.Job.Wait(waitCtx(t))
	second, err := s.submitBody(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.memo) != 1 || !second.CacheHit {
		t.Fatalf("memo holds %d bodies, second submission a hit: %v; want 1, true", len(s.memo), second.CacheHit)
	}
	if first.Job.hash != second.Job.hash || first.Job.spec != second.Job.spec {
		t.Fatalf("the same body addressed twice: %s %+v, then %s %+v",
			first.Job.hash, first.Job.spec, second.Job.hash, second.Job.spec)
	}
	for _, bad := range []string{
		`{"seed":3,"bogus":1}`, // refused by the decode
		`{"gvt":"bogus"}`,      // decodes, refused by Address
		`{"seed":3`,
	} {
		var answers [2]string
		for i := range answers {
			resp, err := http.Post(ts.URL+"/jobs?wait", "application/json", strings.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			var doc client.ErrorBody
			json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || doc.Error == "" {
				t.Fatalf("%s: HTTP %d %q, want 400 with a reason", bad, resp.StatusCode, doc.Error)
			}
			answers[i] = doc.Error
		}
		if answers[0] != answers[1] {
			t.Fatalf("%s refused as %q, then as %q", bad, answers[0], answers[1])
		}
	}
	long := body + strings.Repeat(" ", specMemoBody)
	if res, err := s.submitBody(strings.NewReader(long)); err != nil || res.Job.hash != first.Job.hash {
		t.Fatalf("a padded body: %v, want the same spec", err)
	}
	if len(s.memo) != 1 {
		t.Fatalf("memo holds %d bodies after three bad ones and a long one, want 1", len(s.memo))
	}
}

// TestCacheHitAllocsPinned: what the daemon's POST /jobs?wait handler
// allocates to answer a warm cache hit, through httptest (the recorder
// and the request included). A bound may only go down.
func TestCacheHitAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := NewServer(Options{Workers: 1})
	t.Cleanup(s.Close)
	h := s.Handler()
	const body = `{"seed":42}`
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs?wait", strings.NewReader(body)))
		return w
	}
	if w := post(); w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if w := post(); w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	})
	t.Logf("%.1f allocations per hit", allocs)
	const bound = 30
	if allocs > bound {
		t.Errorf("a cache hit allocates %.1f times in the handler, bound %d", allocs, bound)
	}
}

// TestSettledJobsBounded: the server keeps every unsettled job and the
// newest maxSettledJobs settled ones. After maxSettledJobs+k cache hits
// the first k are forgotten, answering 404; the listing holds the rest;
// and further hits leave the heap where it was.
func TestSettledJobsBounded(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	spec := fastSpec(1)
	_, _, hash, err := spec.Address()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(hash, []byte(`{}`)) // every submission a hit
	hit := func() *Job {
		res, err := s.Submit(spec)
		if err != nil || !res.CacheHit {
			t.Fatalf("submission: hit %v, %v", res.CacheHit, err)
		}
		return res.Job
	}
	const k = 10
	var forgotten []string
	for i := 0; i < maxSettledJobs+k; i++ {
		if j := hit(); i < k {
			forgotten = append(forgotten, j.ID())
		}
	}
	for _, id := range forgotten {
		if code, body, _ := getBody(t, ts.URL+"/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("GET /jobs/%s after %d newer settled jobs: HTTP %d %s", id, maxSettledJobs, code, body)
		}
	}
	if n := len(s.Jobs()); n != maxSettledJobs {
		t.Fatalf("%d jobs listed, want %d", n, maxSettledJobs)
	}
	if raceEnabled {
		return // the race detector's own allocations void the heap reading
	}
	const more = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < more; i++ {
		hit()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / more
	t.Logf("the heap grew %.1f bytes per further hit", grew)
	if grew > 40 {
		t.Fatalf("the heap grew %.0f bytes per further hit", grew)
	}
}

// TestJobID: job ids read as fmt's "j%06d" did, past six digits too.
func TestJobID(t *testing.T) {
	for _, seq := range []int64{1, 9, 10, 99999, 100000, 999999, 1000000, 123456789} {
		if got, want := jobID(seq), fmt.Sprintf("j%06d", seq); got != want {
			t.Errorf("jobID(%d) = %q, want %q", seq, got, want)
		}
	}
}

// TestSettledReportsBounded: the settled jobs kept hold at most the result
// cache's budget in report bytes, executed jobs' reports counted as cache
// hits' are. Past it the oldest are forgotten (ErrNotFound) while the
// newest still serve their reports.
func TestSettledReportsBounded(t *testing.T) {
	const size, budget = 1000, 10_000
	s, _ := newTestService(t, Options{Workers: 1, CacheBytes: budget})
	spec := fastSpec(1)
	_, _, hash, err := spec.Address()
	if err != nil {
		t.Fatal(err)
	}
	pad := []byte(`{"pad":"` + strings.Repeat("x", size-10) + `"}`)
	hit := func() string {
		s.cache.Put(hash, pad) // every submission a hit
		res, err := s.Submit(spec)
		if err != nil || !res.CacheHit {
			t.Fatalf("submission: hit %v, %v", res.CacheHit, err)
		}
		return res.Job.ID()
	}
	// Kept reports as wanted: want[i] says whether ids[i] still serves one.
	check := func(ids []string, want func(i int) bool) {
		t.Helper()
		for i, id := range ids {
			j, err := s.Job(id)
			switch {
			case !want(i) && err != ErrNotFound:
				t.Errorf("job %d (%s): %v, want ErrNotFound", i, id, err)
			case want(i) && err != nil:
				t.Errorf("job %d (%s) forgotten: %v", i, id, err)
			case want(i):
				if report, ok := j.Report(); !ok || len(report) == 0 {
					t.Errorf("job %d (%s) serves no report", i, id)
				}
			}
		}
	}

	var ids []string
	for i := 0; i < 9; i++ {
		ids = append(ids, hit())
	}
	res, err := s.Submit(fastSpec(2))
	if err != nil || res.CacheHit {
		t.Fatalf("executed submission: hit %v, %v", res.CacheHit, err)
	}
	if st := res.Job.Wait(context.Background()); st != StateDone {
		t.Fatalf("executed job ended %s", st)
	}
	report, _ := res.Job.Report()
	forgot := 0 // the oldest hits an executed report of len(report) bytes displaces
	for 9*size-forgot*size+len(report) > budget && forgot < 9 {
		forgot++
	}
	if forgot == 0 {
		t.Fatalf("a %d-byte report displaced nothing: the test needs a larger one", len(report))
	}
	ids = append(ids, res.Job.ID())
	check(ids, func(i int) bool { return i >= forgot })

	for i := 0; i < budget/size; i++ {
		ids = append(ids, hit())
	}
	check(ids, func(i int) bool { return i >= len(ids)-budget/size })
}
