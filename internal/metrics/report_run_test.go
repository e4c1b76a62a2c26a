package metrics_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/metrics"
	"repro/internal/run"
)

// tinySpec is the job service's cold-job shape: about forty events.
var tinySpec = run.Spec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: 1}

// encodeCases are the reports the encode gate and benchmark price: a cold
// job's and the default spec's.
var encodeCases = []struct {
	name string
	spec run.Spec
}{{"tiny", tinySpec}, {"default", run.Spec{Seed: 1}}}

// reportOf runs spec with a recorder attached and returns its report,
// labelled the way the job service labels one.
func reportOf(tb testing.TB, spec run.Spec) *metrics.Report {
	tb.Helper()
	c, err := spec.Canonical()
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := run.New(c, run.Attach{Metrics: metrics.NewRecorder()})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		tb.Fatal(err)
	}
	rep := eng.Report(r)
	rep.Config.Label = "simd/" + c.Model
	return rep
}

// TestReportBytesPinned holds MarshalStable's bytes to fixed SHA-256s: a
// result the store wrote under a spec's hash is served as the bytes a
// fresh run of that spec would encode. The specs cover every model, every GVT
// algorithm, both conservative protocols, a fault plan, greedy balance and
// shared comm, so every block and every omitempty field of the report
// shows up at least once.
func TestReportBytesPinned(t *testing.T) {
	small := run.Spec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 8, Seed: 3}
	with := func(f func(*run.Spec)) run.Spec { s := small; f(&s); return s }
	for _, c := range []struct {
		name string
		spec run.Spec
		sum  string
	}{
		{"tiny", tinySpec,
			"1d910e3e589c06ee13c1cc7027537974dc45ad3e36c30f56882903320dbc115c"},
		{"default", run.Spec{Seed: 1},
			"18b2766c8d29361a0ce2bff2209d84c919313bf9018f6d24e532b89f1319bb47"},
		{"pcs", with(func(s *run.Spec) { s.Model = "pcs" }),
			"6578adc44ea7f5be69ca6fd51eb11fc9f97dcc8f8713601c625fbcbc63517471"},
		{"epidemic", with(func(s *run.Spec) { s.Model = "epidemic" }),
			"126edcad261b487669c63bedebf724ddef067bf36fcb583ee5708b6af6a1e2ac"},
		{"tandem", with(func(s *run.Spec) { s.Model = "tandem" }),
			"d7045a91d558052fb446983e6741ff66fd2bc7705d50c43a163e2c7efb751321"},
		{"barrier", with(func(s *run.Spec) { s.GVT = "barrier" }),
			"401b45c7fc42a2cdedfdd290272a3fb8639ba765a6dc82d91a3956d397967f14"},
		{"ca-gvt-mixed", with(func(s *run.Spec) { s.GVT, s.Scenario = "ca-gvt", "mixed" }),
			"1ed3b41ec71c454a3ff68ee1184a83a5291b09985d6c97301ae8731042cfa53e"},
		{"samadi-comm", with(func(s *run.Spec) { s.GVT, s.Scenario = "samadi", "comm" }),
			"fd404046433cfb3504b90e03b9519e9a2bac418ba1cbd8010a4f1314725c4c6d"},
		{"nullmsg", with(func(s *run.Spec) { s.Sync = "nullmsg" }),
			"d7882957d33a8465d7ae25232da63bae1cf11a61a5800a9c56e788e5431e7c88"},
		{"window", with(func(s *run.Spec) { s.Sync = "window" }),
			"3608ba92f1f1916994adf41404f16e9c68c2f05ac758f3ab2a31ba37364a530c"},
		{"faults", with(func(s *run.Spec) { s.Faults = "chaos" }),
			"29be8d5b7a783d1b83723508eede945fbf8efb327ccca62a6fdc18c8c5f84ede"},
		{"greedy", run.Spec{Scenario: "mixed", GVT: "ca-gvt", Balance: "greedy", Faults: "straggler", Nodes: 3, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 60, Seed: 5},
			"5d69f98fde7f3b370fae6bb573f4436712b844f57708079f729b855e89b630aa"},
		{"shared", with(func(s *run.Spec) { s.Comm = "shared" }),
			"28fcd081c5f46e56ae2b5d28e08feabdafc8a31afc82eeab74feda4f737634ee"},
	} {
		b, err := reportOf(t, c.spec).MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%s: report bytes hash to %s, want %s (%d bytes)", c.name, got, c.sum, len(b))
		}
	}
}

// TestMarshalStableAllocs is the report-encode ratchet: MarshalStable is
// one json.Marshal, which allocates about once, for its output; a second
// pass over the document (CanonicalJSON's decode and re-encode) costs
// hundreds.
func TestMarshalStableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, c := range encodeCases {
		rep := reportOf(t, c.spec)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := rep.MarshalStable(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s report: MarshalStable makes %.0f allocations, want at most 2", c.name, allocs)
		}
	}
}

// BenchmarkMarshalStable: encode a finished run's report, what every cold
// job pays before its store publish.
func BenchmarkMarshalStable(b *testing.B) {
	for _, c := range encodeCases {
		rep := reportOf(b, c.spec)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rep.MarshalStable(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
