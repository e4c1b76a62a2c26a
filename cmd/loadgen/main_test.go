package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/pkg/client"
)

func seedOf(t *testing.T, spec any) uint64 {
	t.Helper()
	m, ok := spec.(map[string]any)
	if !ok {
		t.Fatalf("spec %v is not a map", spec)
	}
	return m["seed"].(uint64)
}

func TestBuildMixShapes(t *testing.T) {
	dup, err := buildMix("duplicate", 10, 3, 100, "phold", 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, s := range dup {
		seen[seedOf(t, s)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("duplicate mix produced %d unique seeds, want 3", len(seen))
	}

	dis, err := buildMix("distinct", 10, 3, 100, "phold", 10)
	if err != nil {
		t.Fatal(err)
	}
	seen = map[uint64]bool{}
	for _, s := range dis {
		seen[seedOf(t, s)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("distinct mix produced %d unique seeds, want 10", len(seen))
	}

	mixed, err := buildMix("mixed", 10, 2, 100, "phold", 10)
	if err != nil {
		t.Fatal(err)
	}
	dupSeen := map[uint64]bool{}
	for i, s := range mixed {
		seed := seedOf(t, s)
		if i%2 == 0 {
			dupSeen[seed] = true
		} else if seed < 1_000_000 {
			t.Fatalf("mixed odd slot %d reused the duplicate pool (seed %d)", i, seed)
		}
	}
	if len(dupSeen) != 2 {
		t.Fatalf("mixed duplicate pool has %d seeds, want 2", len(dupSeen))
	}

	if _, err := buildMix("chaotic", 1, 1, 1, "phold", 10); err == nil {
		t.Fatal("unknown mix must be rejected")
	}
	if _, err := buildMix("duplicate", 1, 0, 1, "phold", 10); err == nil {
		t.Fatal("non-positive -distinct must be rejected")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := percentile(ds, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7 * time.Millisecond}, 99); got != 7*time.Millisecond {
		t.Errorf("singleton p99 = %v", got)
	}
}

func TestSummarizeCountsAndRatios(t *testing.T) {
	results := []result{
		{latency: 10 * time.Millisecond, reportSize: 1, cacheHit: true},
		{latency: 20 * time.Millisecond, reportSize: 1, cacheHit: true, storeHit: true},
		{latency: 30 * time.Millisecond, reportSize: 1, rejected: 2, honored: 1},
		{err: errors.New("boom")},
		{}, // neither result nor error: lost
	}
	sum := summarize(results, 2*time.Second)
	if sum.Requests != 5 || sum.Completed != 3 || sum.Failed != 1 || sum.Lost != 1 {
		t.Fatalf("counts: %+v", sum)
	}
	if sum.CacheHits != 2 || sum.CacheHitRatio < 0.66 || sum.CacheHitRatio > 0.67 {
		t.Fatalf("cache: %+v", sum)
	}
	if sum.StoreHits != 1 {
		t.Fatalf("store hits = %d", sum.StoreHits)
	}
	if sum.Rejected429 != 2 || sum.Honored429 != 1 {
		t.Fatalf("429s: %+v", sum)
	}
	// 3 completed + 1 failed + 2 rejected = 6 attempts.
	if sum.Rate429 < 0.33 || sum.Rate429 > 0.34 {
		t.Fatalf("rate_429 = %v", sum.Rate429)
	}
	if sum.Throughput != 1.5 {
		t.Fatalf("throughput = %v, want 1.5", sum.Throughput)
	}
	if sum.Errors["transport"] != 1 {
		t.Fatalf("errors: %v", sum.Errors)
	}
}

func TestEvalSLOsGates(t *testing.T) {
	delta := int64(3)
	sum := &Summary{
		Completed: 10, CacheHitRatio: 0.9, LatencyP99Ms: 120,
		Honored429: 2, Rate429: 0.1, ExecutionsDelta: &delta,
	}
	o := options{
		sloCacheHitMin: 0.8,
		sloP99Max:      200 * time.Millisecond,
		sloMin429:      1,
		sloMax429Rate:  0.5,
		sloExactExecs:  3,
	}
	for _, s := range evalSLOs(sum, o) {
		if !s.OK {
			t.Fatalf("SLO %s failed on a passing summary: %s", s.Name, s.Detail)
		}
	}

	// Each violation must flip exactly its own gate.
	bads := []struct {
		name   string
		mutate func(*Summary, *options)
	}{
		{"lost", func(s *Summary, _ *options) { s.Lost = 1 }},
		{"failed", func(s *Summary, _ *options) { s.Failed = 1 }},
		{"cache_hit_ratio", func(s *Summary, _ *options) { s.CacheHitRatio = 0.5 }},
		{"latency_p99", func(s *Summary, _ *options) { s.LatencyP99Ms = 500 }},
		{"honored_429", func(s *Summary, _ *options) { s.Honored429 = 0 }},
		{"rate_429", func(s *Summary, _ *options) { s.Rate429 = 0.9 }},
		{"executions", func(s *Summary, _ *options) { d := int64(4); s.ExecutionsDelta = &d }},
	}
	for _, bad := range bads {
		s2 := *sum
		o2 := o
		bad.mutate(&s2, &o2)
		failed := map[string]bool{}
		for _, r := range evalSLOs(&s2, o2) {
			if !r.OK {
				failed[r.Name] = true
			}
		}
		if !failed[bad.name] || len(failed) != 1 {
			t.Errorf("mutating %s failed gates %v, want exactly itself", bad.name, failed)
		}
	}

	// Exact-executions with /stats unavailable must fail closed.
	s3 := *sum
	s3.ExecutionsDelta = nil
	var execGate *SLOResult
	for _, r := range evalSLOs(&s3, o) {
		if r.Name == "executions" {
			r := r
			execGate = &r
		}
	}
	if execGate == nil || execGate.OK {
		t.Fatalf("executions gate without /stats = %+v, want a failure", execGate)
	}

	// Disabled gates don't grade.
	names := map[string]bool{}
	for _, r := range evalSLOs(sum, options{sloCacheHitMin: -1, sloMin429: -1, sloMax429Rate: -1, sloExactExecs: -1}) {
		names[r.Name] = true
	}
	if len(names) != 2 || !names["lost"] || !names["failed"] {
		t.Fatalf("disabled-gate run graded %v, want only lost+failed", names)
	}
}

func TestErrClassBuckets(t *testing.T) {
	cases := map[string]error{
		"queue_full_exhausted": &client.QueueFullError{},
		"job_deadline":         client.ErrDeadline,
		"cancelled":            client.ErrCancelled,
		"not_found":            client.ErrNotFound,
		"run_timeout":          context.DeadlineExceeded,
		"job_failed":           &client.JobFailedError{},
		"transport":            errors.New("connection refused"),
	}
	for want, err := range cases {
		if got := errClass(err); got != want {
			t.Errorf("errClass(%v) = %q, want %q", err, got, want)
		}
	}
}

// TestPrintHumanOrdersErrors: the table lists error classes sorted, so a
// summary renders the same bytes every time.
func TestPrintHumanOrdersErrors(t *testing.T) {
	sum := &Summary{Requests: 9, Failed: 9, Errors: map[string]int{"timeout": 2, "http_500": 3, "connect": 4}}
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printHuman(&buf, sum)
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, buf.Bytes(), first)
		}
	}
	var classes []string
	for _, line := range strings.Split(string(first), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "error" {
			classes = append(classes, f[1]+" "+f[2])
		}
	}
	if got, want := strings.Join(classes, ", "), "connect x4, http_500 x3, timeout x2"; got != want {
		t.Errorf("error lines %q, want %q", got, want)
	}
}

// TestCheckOptions: a request count, rate or in-flight bound the run
// cannot honour is an error naming the flag, and the defaults pass.
func TestCheckOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*options)
		err  string // "": valid
	}{
		{"defaults", func(*options) {}, ""},
		{"max-inflight 1", func(o *options) { o.maxInflight = 1 }, ""},
		{"n 0", func(o *options) { o.n = 0 }, "-n"},
		{"rps 0", func(o *options) { o.rps = 0 }, "-rps"},
		{"rps -1", func(o *options) { o.rps = -1 }, "-rps"},
		{"max-inflight 0", func(o *options) { o.maxInflight = 0 }, "-max-inflight"},
		{"max-inflight -1", func(o *options) { o.maxInflight = -1 }, "-max-inflight"},
	} {
		o := options{n: 100, rps: 50, maxInflight: 64}
		c.set(&o)
		err := checkOptions(o)
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
		}
	}
}
