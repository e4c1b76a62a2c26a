package obs

import (
	"bytes"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds a deterministic registry exercising every
// instrument kind the renderer supports.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter("svc_requests_total", "Requests handled.").Add(42)
	v := r.CounterVec("svc_jobs_finished_total", "Jobs by terminal state.", "state")
	v.With("done").Add(7)
	v.With("failed").Inc()
	r.Gauge("svc_queue_depth", "Tasks waiting.").Set(3)
	r.GaugeVec("svc_build_info", "Build identification.", "go_version", "revision").
		With("go1.22", "abc\"def\\x").Set(1)
	r.GaugeFunc("svc_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })
	r.CounterFunc("svc_cache_hits_total", "Cache hits.", func() float64 { return 9 })
	h := r.Histogram("svc_wait_seconds", "Queue wait time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	return r
}

// TestGoldenExposition pins the exposition byte-for-byte against the
// checked-in golden file, then re-parses it and checks every structural
// property a scraper relies on: declared types, name/label/value
// round-trip, and histogram bucket monotonicity ending at +Inf.
func TestGoldenExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	snap, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := map[string]string{
		"svc_requests_total":      "counter",
		"svc_jobs_finished_total": "counter",
		"svc_queue_depth":         "gauge",
		"svc_build_info":          "gauge",
		"svc_uptime_seconds":      "gauge",
		"svc_cache_hits_total":    "counter",
		"svc_wait_seconds":        "histogram",
	}
	for name, typ := range wantTypes {
		if got := snap.Types[name]; got != typ {
			t.Errorf("TYPE %s = %q, want %q", name, got, typ)
		}
	}
	checks := []struct {
		name string
		kv   []string
		want float64
	}{
		{"svc_requests_total", nil, 42},
		{"svc_jobs_finished_total", []string{"state", "done"}, 7},
		{"svc_jobs_finished_total", []string{"state", "failed"}, 1},
		{"svc_queue_depth", nil, 3},
		{"svc_build_info", []string{"go_version", "go1.22", "revision", `abc"def\x`}, 1},
		{"svc_uptime_seconds", nil, 12.5},
		{"svc_cache_hits_total", nil, 9},
		{"svc_wait_seconds_bucket", []string{"le", "0.1"}, 1},
		{"svc_wait_seconds_bucket", []string{"le", "1"}, 3},
		{"svc_wait_seconds_bucket", []string{"le", "10"}, 4},
		{"svc_wait_seconds_bucket", []string{"le", "+Inf"}, 5},
		{"svc_wait_seconds_sum", nil, 56.05},
		{"svc_wait_seconds_count", nil, 5},
	}
	for _, c := range checks {
		got, ok := snap.Get(c.name, c.kv...)
		if !ok {
			t.Errorf("series %s%v missing", c.name, c.kv)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	assertHistogramsWellFormed(t, snap)
}

// assertHistogramsWellFormed checks, for every family declared as a
// histogram, that its cumulative buckets are monotone non-decreasing in
// le order, terminate at le="+Inf", and agree with _count.
func assertHistogramsWellFormed(t *testing.T, snap *Snapshot) {
	t.Helper()
	for name, typ := range snap.Types {
		if typ != "histogram" {
			continue
		}
		var prevLe, prevCum float64 = math.Inf(-1), 0
		var infSeen bool
		for _, s := range snap.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			le, err := parseLe(s.Labels["le"])
			if err != nil {
				t.Fatalf("%s: bad le %q", name, s.Labels["le"])
			}
			if le <= prevLe {
				t.Errorf("%s: buckets out of le order (%v after %v)", name, le, prevLe)
			}
			if s.Value < prevCum {
				t.Errorf("%s: cumulative count decreased at le=%v (%v < %v)", name, le, s.Value, prevCum)
			}
			prevLe, prevCum = le, s.Value
			if math.IsInf(le, 1) {
				infSeen = true
				count, ok := snap.Get(name + "_count")
				if !ok || count != s.Value {
					t.Errorf("%s: +Inf bucket %v != _count %v", name, s.Value, count)
				}
			}
		}
		if !infSeen {
			t.Errorf("%s: no le=\"+Inf\" bucket", name)
		}
	}
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// TestRegistryRace hammers every instrument kind from many goroutines
// while other goroutines scrape continuously; run under -race this
// pins the concurrency contract.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	g := r.Gauge("race_gauge", "")
	h := r.Histogram("race_hist_seconds", "", nil)
	vec := r.CounterVec("race_vec_total", "", "who")
	r.GaugeFunc("race_fn", "", func() float64 { return 1 })
	// A scrape hook that writes the gauge. Not Set(Value()): that
	// read-then-store would itself lose a writer's concurrent Add.
	r.OnScrape(func() { g.Add(0) })

	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := string(rune('a' + w%4))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(i%13) / 10)
				vec.With(who).Inc()
			}
		}(w)
	}
	stop := make(chan struct{})
	var scr sync.WaitGroup
	for s := 0; s < 3; s++ {
		scr.Add(1)
		go func() {
			defer scr.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scr.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	var total int64
	for _, who := range []string{"a", "b", "c", "d"} {
		total += vec.With(who).Value()
	}
	if total != writers*perWriter {
		t.Fatalf("vec total = %d, want %d", total, writers*perWriter)
	}
	if got, want := g.Value(), float64(writers*perWriter)*0.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

// TestHandler serves the exposition over HTTP with the conventional
// content type.
func TestHandler(t *testing.T) {
	r := fixtureRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	snap, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("svc_requests_total"); !ok || v != 42 {
		t.Fatalf("svc_requests_total over HTTP = %v, %v", v, ok)
	}
}

// TestParseTextErrors pins parser diagnostics for malformed lines.
func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"just_a_name",
		`m{k="v} 1`,
		`m{k=v} 1`,
		"m notanumber",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

// TestRegisterConflicts pins that a name cannot change type or label
// scheme.
func TestRegisterConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "")
	mustPanic(t, func() { r.Gauge("c_total", "") })
	r.CounterVec("v_total", "", "a")
	mustPanic(t, func() { r.CounterVec("v_total", "", "b") })
	mustPanic(t, func() { r.Histogram("h", "", []float64{2, 1}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestExpBuckets pins the helper's geometry.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	mustPanic(t, func() { ExpBuckets(0, 2, 3) })
}

// TestBuildInfo exercises the build-info gauge path end to end.
func TestBuildInfo(t *testing.T) {
	r := NewRegistry()
	b := ReadBuild()
	if b.GoVersion == "" {
		t.Fatal("no Go version")
	}
	RegisterBuildInfo(r, "svc_build_info", b)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v := snap.Sum("svc_build_info"); v != 1 {
		t.Fatalf("svc_build_info = %v, want 1", v)
	}
}
