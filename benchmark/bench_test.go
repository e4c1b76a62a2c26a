package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/phold"
)

// pythonQuartiles is statistics.quantiles(data, n=4) transcribed in its
// own integer arithmetic: the reference the helper must agree with.
func pythonQuartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return out
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	sets := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{3, 1, 4, 1, 5, 9, 2, 6},
		{10.5, 10.5, 10.5},
		{2, 1},
		{0.31, 0.29, 0.33, 0.30, 0.35, 0.28, 0.32, 0.31, 0.30, 0.34, 0.29},
	}
	for _, vals := range sets {
		s := summarize(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := pythonQuartiles(sorted)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%v: quartile %d = %v, want %v", vals, i+1, got[i], want[i])
			}
		}
		if s.N != len(vals) {
			t.Errorf("%v: n = %d", vals, s.N)
		}
	}
	// Known values: quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	s := summarize(sets[0])
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("1..10: got %v %v %v", s.Q1, s.Median, s.Q3)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// A percentile is the element at its rank in the sorted reference.
	hundred := make([]float64, 99)
	for i := range hundred {
		hundred[i] = float64(99 - i)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..99 = %v, want 99", got)
	}
	if got := percentile(hundred, 0.5); got != 50 {
		t.Errorf("p50 of 1..99 = %v, want 50", got)
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("single sample quantile = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},  // nested child
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25}, // grandchild: only a pays for it
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 35, End: 50},  // wholly inside b
		{ID: 6, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 7, Parent: 1, Name: "agg", Start: 70, End: 80, Calls: 1000},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (30 + 20 + 0 + 10 + 10), // a:10..40, b adds 40..60, c adds nothing, agg 70..80, d 90..100
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 15,
		6: 30,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerInheritsTraceAndNilIsNoOp(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "t", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}
	tr := newTracer()
	root := tr.begin("client.run", "w/rep0/job3", 0)
	child := tr.begin("http.submit", "", root)
	open := tr.begin("never.closed", "", root)
	_ = open
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Trace != "w/rep0/job3" || spans[1].Parent != root {
		t.Errorf("child span = %+v", spans[1])
	}
}

// The ModelFactory decorator only times: the engine must commit the
// same stream with it as without it, on both engines.
func TestModelDecoratorLeavesChecksumUnchanged(t *testing.T) {
	for _, w := range engineSpecs(true) {
		if w.name == "tw-comm" {
			continue // tw-comp covers the Time Warp engine
		}
		const seed = 7
		factory := phold.New(phold.Params{Topology: w.top, Base: w.phase})
		plain, err := w.newEngine(factory, seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		timer := &modelTimer{}
		timed, err := w.newEngine(timer.wrap(factory), seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if *plain != *timed {
			t.Errorf("%s: decorated run differs:\n%+v\n%+v", w.name, plain, timed)
		}
		if timer.onEventCalls.Load() != timed.Workers.Processed {
			t.Errorf("%s: timed %d OnEvent calls, engine processed %d", w.name, timer.onEventCalls.Load(), timed.Workers.Processed)
		}
		if timer.initCalls.Load() != int64(w.top.TotalLPs()) {
			t.Errorf("%s: timed %d Init calls for %d LPs", w.name, timer.initCalls.Load(), w.top.TotalLPs())
		}
	}
}

// lastLine decodes the contract line a run printed last.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

// smokeOptions is a smoke-sized run of every workload into a temp dir.
func smokeOptions(t *testing.T) options {
	return options{workload: "all", seed: 3, seconds: 1, smoke: true, outDir: t.TempDir()}
}

func TestSmokeAllWorkloads(t *testing.T) {
	doc, err := loadBenchmarkDoc(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t)
	var stdout, stderr bytes.Buffer
	if code := runWorkloads(o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	line := lastLine(t, stdout.String())
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Fatalf("untraced smoke: %+v", line)
	}
	// Every workload reports every end-to-end metric of BENCHMARK.json,
	// in its unit, and none is zero.
	for _, w := range doc.Workloads {
		for _, m := range doc.EndToEnd {
			got, ok := line.Metrics[w.Name+":"+m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s %s = %+v (present %v), want a positive %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	if len(line.Metrics) != len(doc.Workloads)*len(doc.EndToEnd) {
		t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(doc.Workloads)*len(doc.EndToEnd))
	}
	left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp", "*"))
	if len(left) != 0 {
		t.Errorf("temp store directories left behind: %v", left)
	}
}

func TestSmokeTracedRunReportsEveryLayer(t *testing.T) {
	doc, err := loadBenchmarkDoc(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t)
	o.trace = true
	var stdout, stderr bytes.Buffer
	if code := runWorkloads(o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	line := lastLine(t, stdout.String())
	if !line.Correct {
		t.Fatalf("traced smoke: %+v", line)
	}
	for _, w := range doc.Workloads {
		for _, m := range doc.PerLayer {
			if got, ok := line.Metrics[w.Name+":"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s = %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
	// What each workload must have entered.
	positive := map[string][]string{
		"tw-comp":      {"core.run_ms", "core.new_ms", "phold.on_event_calls", "phold.share", "seq.run_ms", "metrics.report_bytes", "core.processed", "sim.advance_ns", "store.put_us", "simdcluster.hop_us"},
		"tw-comm":      {"core.rollbacks", "core.anti_sent", "phold.restore_calls", "event.pool_recycled"},
		"cons-nullmsg": {"conservative.run_ms", "conservative.null_messages", "conservative.null_per_committed", "mpi.messages"},
		"svc-hot":      {"client.run_ms_p50", "client.run_ms_p99", "client.http_calls_per_job", "client.overhead_us", "simd.http_submit_us", "simd.http_events_us", "simd.http_report_us", "simd.cache_hit_frac"},
		"svc-cold":     {"simd.executions", "store.fsyncs_per_job", "store.fsync_us_p50", "store.bytes_per_job", "core.processed"},
	}
	for w, names := range positive {
		for _, n := range names {
			if v := line.Metrics[w+":"+n]; !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, n, v.Value)
			}
		}
	}
	if v := line.Metrics["svc-hot:simd.cache_hit_frac"].Value; v != 1 {
		t.Errorf("svc-hot cache hit fraction = %v, want 1", v)
	}
	if v := line.Metrics["svc-hot:simd.executions"].Value; v != 0 {
		t.Errorf("svc-hot executions in the timed region = %v, want 0", v)
	}

	data, err := os.ReadFile(filepath.Join(o.outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tdoc traceDoc
	if err := json.Unmarshal(data, &tdoc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tdoc.Spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"bench.rep", "phold.new", "seq.run", "core.new", "core.run", "conservative.run",
		"phold.on_event", "phold.snapshot", "phold.init", "metrics.build_report", "metrics.marshal",
		"client.run", "http.submit", "http.events", "http.report", "simd.http_submit", "simd.http_events", "simd.http_report", "store.fsync"} {
		if !names[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}
	if tdoc.SelfNS["core.run"] <= 0 {
		t.Errorf("self time of core.run = %d", tdoc.SelfNS["core.run"])
	}
}

// A corrupted expected result must fail every workload's check, flip
// failed and the exit code, and still print the result object.
func TestCorruptedExpectationFails(t *testing.T) {
	o := smokeOptions(t)
	o.corrupt = true
	for _, w := range workloads(true) {
		o.workload = w.name
		var stdout, stderr bytes.Buffer
		code := runWorkloads(o, &stdout, &stderr)
		line := lastLine(t, stdout.String())
		if code != 1 || line.Correct || line.Failed == 0 {
			t.Errorf("%s: exit %d, %+v; want exit 1 and failed > 0", w.name, code, line)
		}
		if !strings.Contains(stdout.String(), "FAILED:") {
			t.Errorf("%s: no failure reason printed", w.name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope", "-smoke", "-out", t.TempDir()},
		{"-bogus"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// BENCHMARK.json, the workload list and the per-layer catalogue are
// three views of one thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	doc, err := loadBenchmarkDoc(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, implemented %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d in the catalogue", len(doc.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range layerMetrics {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: declared %+v, catalogue %s %s %s", i, d, m.Name, m.Unit, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("per-layer %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Source != "count" && m.Source != "span" && m.Source != "probe" {
			t.Errorf("%s: source %q", m.Name, m.Source)
		}
		if m.Moves == "" || m.On == "" || m.NotOn == "" {
			t.Errorf("%s: no prediction written down", m.Name)
		}
	}
	hasSetup := false
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// writeSet writes one result file per value: a result set of len(vals)
// runs of one workload and metric.
func writeSet(t *testing.T, vals map[string][]float64) string {
	t.Helper()
	dir := t.TempDir()
	n := 0
	for _, v := range vals {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		e2e := map[string]value{}
		for m, v := range vals {
			e2e[m] = exactValue(v[i], "x", 1)
		}
		doc := resultFile{Schema: resultSchema, Seed: uint64(i + 1), Workloads: map[string]workloadResult{
			"tw-comp": {Workload: "tw-comp", EndToEnd: e2e}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%d.json", i+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompareVerdicts(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"tw-comp"}],"end_to_end":[
		{"name":"events_per_s","unit":"1/s","better":"higher","bound":0.10},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.10}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120}
	cases := []struct {
		name       string
		base, cand map[string][]float64
		want       []string // verdict per metric row, in BENCHMARK.json order
		exit       int
	}{
		{"same", map[string][]float64{"events_per_s": steady, "setup_s": steady},
			map[string][]float64{"events_per_s": scale(steady, 1.03), "setup_s": scale(steady, 0.97)}, []string{"ok", "ok"}, 0},
		{"slower", map[string][]float64{"events_per_s": steady, "setup_s": steady},
			map[string][]float64{"events_per_s": scale(steady, 0.85), "setup_s": scale(steady, 1.2)}, []string{"regressed", "regressed"}, 1},
		{"faster is never a regression", map[string][]float64{"events_per_s": steady, "setup_s": steady},
			map[string][]float64{"events_per_s": scale(steady, 1.5), "setup_s": scale(steady, 0.5)}, []string{"ok", "ok"}, 0},
		{"spread wider than the bound", map[string][]float64{"events_per_s": noisy, "setup_s": steady},
			map[string][]float64{"events_per_s": noisy, "setup_s": steady}, []string{"unresolved", "ok"}, 0},
		{"missing metric", map[string][]float64{"events_per_s": steady, "setup_s": steady},
			map[string][]float64{"events_per_s": steady}, []string{"ok", "missing"}, 1},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := runCompare(bench, writeSet(t, c.base), writeSet(t, c.cand), &stdout, &stderr)
		if code != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.exit, stdout.String(), stderr.String())
		}
		var rows []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(l, "tw-comp") {
				f := strings.Fields(l)
				rows = append(rows, f[len(f)-1])
			}
		}
		if strings.Join(rows, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s: verdicts %v, want %v\n%s", c.name, rows, c.want, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := runCompare(bench, filepath.Join(t.TempDir(), "absent"), t.TempDir(), &stdout, &stderr); code != 2 {
		t.Errorf("missing set: exit %d, want 2", code)
	}
}

func TestSeedsDeriveFromTheFlag(t *testing.T) {
	if subSeed(1, streamEngine, 0) == subSeed(2, streamEngine, 0) {
		t.Error("different -seed, same engine seed")
	}
	if subSeed(1, streamEngine, 0) == subSeed(1, streamColdSpec, 0) {
		t.Error("different streams, same seed")
	}
	// The hot workload's spec set and replay order follow -seed, and
	// nothing else.
	hot := serviceSpecs(true)[0]
	order := func(seed uint64) string {
		_, jobs := hot.plan(seed, 0, 50)
		return fmt.Sprint(jobs)
	}
	if order(5) != order(5) {
		t.Error("same -seed, different replay order")
	}
	if order(5) == order(6) {
		t.Error("different -seed, same replay order")
	}
}
