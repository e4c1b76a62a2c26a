package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/sim"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("events") != c {
		t.Fatal("Counter lookup is not get-or-create")
	}
	cv := r.CounterValues()
	if len(cv) != 1 || cv[0].Name != "events" || cv[0].Value != 5 {
		t.Fatalf("CounterValues = %v", cv)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dist")
	if r.Histogram("dist") != h {
		t.Fatal("Histogram lookup is not get-or-create")
	}
	// 0, 1, 2, 3, 4..7, and one big outlier.
	for _, v := range []int64{0, 1, 2, 3, 5, 1000} {
		h.Observe(v)
	}
	h.Observe(-7) // clamps to 0
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d, want 1000", h.Max())
	}
	if h.Sum() != 0+1+2+3+5+1000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if q := h.Quantile(0.5); q != 3 {
		// 4 of 7 observations are <= 3 (bucket edge 2^2-1).
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (capped at max)", q)
	}
	s := h.Summary()
	var n int64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", n, h.Count())
	}
	if s.Buckets[0].Le != 0 || s.Buckets[0].Count != 2 {
		t.Fatalf("zero bucket = %+v", s.Buckets[0])
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.Le != 1000 {
		t.Fatalf("last bucket Le = %d, want capped at max 1000", last.Le)
	}
}

func TestSafeLVT(t *testing.T) {
	if SafeLVT(math.Inf(1)) != -1 || SafeLVT(math.MaxFloat64) != -1 {
		t.Fatal("infinite LVT must encode as -1")
	}
	if SafeLVT(42.5) != 42.5 {
		t.Fatal("finite LVT must pass through")
	}
}

func TestRecorderCompaction(t *testing.T) {
	r := NewRecorder()
	r.MaxSamples = 8
	r.Init(2)
	ws := r.Scratch()
	for round := int64(0); round < 100; round++ {
		ws[0].Pending = int(round)
		ws[1].Pending = int(round) * 2
		r.SampleRound(RoundSample{Round: round, GVT: float64(round)}, ws)
	}
	got := r.Rounds()
	if len(got) > 8 {
		t.Fatalf("rounds overflowed: %d > 8", len(got))
	}
	if got[0].Round != 0 {
		t.Fatalf("first sample = round %d, want 0", got[0].Round)
	}
	stride := int64(r.Stride())
	if stride < 2 {
		t.Fatalf("stride = %d, want doubled at least once", stride)
	}
	// Samples must be uniformly spaced at the final stride, and the
	// per-worker series must stay in lockstep.
	for i, rs := range got {
		if rs.Round != int64(i)*stride {
			t.Fatalf("sample %d is round %d, want %d (stride %d)", i, rs.Round, int64(i)*stride, stride)
		}
		if w := r.WorkerSeries(0)[i]; int64(w.Pending) != rs.Round {
			t.Fatalf("worker 0 sample %d = %d, want %d", i, w.Pending, rs.Round)
		}
		if w := r.WorkerSeries(1)[i]; int64(w.Pending) != 2*rs.Round {
			t.Fatalf("worker 1 sample %d out of lockstep", i)
		}
	}
	// The whole run must stay covered: last sample within one stride of
	// the last offered round.
	if last := got[len(got)-1].Round; 99-last >= 2*stride {
		t.Fatalf("tail gap: last sample round %d, run ended at 99, stride %d", last, stride)
	}
}

// TestRecorderGrowsWithTheRun: Init allocates for the workers, not for
// MaxSamples, and the series compact at the rounds the table pins: length
// and stride after each of 40 rounds at MaxSamples 8.
func TestRecorderGrowsWithTheRun(t *testing.T) {
	initBytes := func(max int) uint64 {
		var least uint64
		for i := 0; i < 3; i++ {
			r := &Recorder{MaxSamples: max}
			r.Registry()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.Init(16)
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < least {
				least = b
			}
		}
		return least
	}
	if small, large := initBytes(8), initBytes(4096); small != large {
		t.Errorf("Init(16) allocates %d B at MaxSamples 8 and %d B at 4096; want the same", small, large)
	}

	want := [40][2]int{
		{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {5, 2}, {5, 2},
		{6, 2}, {6, 2}, {7, 2}, {7, 2}, {8, 2}, {8, 2}, {5, 4}, {5, 4}, {5, 4}, {5, 4},
		{6, 4}, {6, 4}, {6, 4}, {6, 4}, {7, 4}, {7, 4}, {7, 4}, {7, 4}, {8, 4}, {8, 4},
		{8, 4}, {8, 4}, {5, 8}, {5, 8}, {5, 8}, {5, 8}, {5, 8}, {5, 8}, {5, 8}, {5, 8},
	}
	r := &Recorder{MaxSamples: 8}
	r.Init(2)
	for i, w := range want {
		r.SampleRound(RoundSample{Round: int64(i)}, r.Scratch())
		if got := [2]int{len(r.Rounds()), r.Stride()}; got != w || len(r.WorkerSeries(1)) != w[0] {
			t.Fatalf("after round %d: {len, stride} = %v (worker 1: %d samples), want %v", i, got, len(r.WorkerSeries(1)), w)
		}
	}
	for i, rs := range r.Rounds() {
		if rs.Round != int64(8*i) {
			t.Errorf("sample %d is round %d, want %d", i, rs.Round, 8*i)
		}
	}
}

func TestRecorderSamplingAllocates(t *testing.T) {
	r := NewRecorder()
	r.MaxSamples = 64
	r.Init(4)
	ws := r.Scratch()
	allocs := testing.AllocsPerRun(1000, func() {
		r.SampleRound(RoundSample{}, ws)
	})
	if allocs > 0 {
		t.Fatalf("SampleRound allocates %.1f per call, want 0", allocs)
	}
}

func TestRecorderWithoutInit(t *testing.T) {
	r := NewRecorder()
	r.SampleRound(RoundSample{}, nil) // must not panic
	if r.Stride() != 1 {
		t.Fatalf("stride = %d", r.Stride())
	}
}

// TestRegistryUnderSimScheduler exercises the registry from many
// simulated processes. The kernel interleaves them at
// Advance points; totals must come out exact without any host locking.
func TestRegistryUnderSimScheduler(t *testing.T) {
	env := sim.NewEnv()
	reg := NewRegistry()
	const procs, iters = 8, 100
	for i := 0; i < procs; i++ {
		i := i
		env.Spawn("inc", func(p *sim.Proc) {
			c := reg.Counter("shared")
			h := reg.Histogram("depths")
			for k := 0; k < iters; k++ {
				c.Inc()
				h.Observe(int64(i*iters + k))
				p.Advance(sim.Microsecond)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("shared").Value(); got != procs*iters {
		t.Fatalf("counter = %d, want %d", got, procs*iters)
	}
	if got := reg.Histogram("depths").Count(); got != procs*iters {
		t.Fatalf("histogram count = %d, want %d", got, procs*iters)
	}
}

func TestBuildReportShape(t *testing.T) {
	rec := NewRecorder()
	rec.Init(2)
	ws := rec.Scratch()
	ws[0] = WorkerSample{LVT: 5, Pending: 3}
	ws[1] = WorkerSample{LVT: -1, Pending: 0}
	rec.SampleRound(RoundSample{Round: 0, GVT: 1, Sync: true}, ws)
	rec.Registry().Counter("x").Add(7)
	rep := BuildReport(RunConfig{Nodes: 2, WorkersPerNode: 1}, RunStats{Committed: 10, CommitChecksum: Checksum(0xdeadbeef)}, rec, 1)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Rounds) != 1 || len(rep.Workers) != 2 {
		t.Fatalf("series shape: %d rounds, %d workers", len(rep.Rounds), len(rep.Workers))
	}
	if rep.Workers[1].Node != 1 {
		t.Fatalf("worker 1 node = %d, want 1", rep.Workers[1].Node)
	}
	if rep.Stats.CommitChecksum != "00000000deadbeef" {
		t.Fatalf("checksum = %q", rep.Stats.CommitChecksum)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "config", "stats", "rounds", "workers", "counters", "gauges", "histograms", "sample_stride"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("report JSON missing key %q", key)
		}
	}
	// Nil recorder: empty but present blocks, never null.
	empty := BuildReport(RunConfig{}, RunStats{}, nil, 0)
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("null")) {
		t.Fatalf("nil-recorder report contains null blocks:\n%s", buf.String())
	}
}
