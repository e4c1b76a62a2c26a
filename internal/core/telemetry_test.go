package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	core "repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runWithTelemetry executes one run with a recorder and a trace attached
// and returns the trace's analysis and bytes.
func runWithTelemetry(t *testing.T, cfg core.Config) (*core.Engine, *metrics.Report, *trace.Analysis, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = trace.NewWriter(&buf)
	cfg.Metrics = metrics.NewRecorder()
	eng := core.New(cfg)
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(bytes.NewReader(buf.Bytes()), 20)
	if err != nil {
		t.Fatalf("telemetry trace does not decode: %v", err)
	}
	return eng, eng.Report(r), a, buf.Bytes()
}

func TestRunReportContent(t *testing.T) {
	cfg := testConfig(2, 2, 8, core.GVTControlled, core.CommDedicated)
	_, rep, a, raw := runWithTelemetry(t, cfg)

	if rep.Schema != metrics.ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Config.Nodes != 2 || rep.Config.GVT != "ca-gvt" || rep.Config.Comm != "dedicated" {
		t.Fatalf("config block = %+v", rep.Config)
	}
	if rep.Stats.Committed == 0 || rep.Stats.GVTRounds == 0 {
		t.Fatalf("stats block empty: %+v", rep.Stats)
	}
	if len(rep.Rounds) == 0 {
		t.Fatal("no round samples recorded")
	}
	if len(rep.Workers) != 4 {
		t.Fatalf("worker series = %d, want 4", len(rep.Workers))
	}
	for _, ws := range rep.Workers {
		if len(ws.Samples) != len(rep.Rounds) {
			t.Fatalf("worker %d series out of lockstep: %d vs %d rounds",
				ws.Worker, len(ws.Samples), len(rep.Rounds))
		}
		for _, s := range ws.Samples {
			if s.LVT < -1 {
				t.Fatalf("worker %d LVT = %v", ws.Worker, s.LVT)
			}
		}
	}
	// Per-round series must carry the tentpole's key signals.
	lastRound := rep.Rounds[len(rep.Rounds)-1]
	if lastRound.Efficiency <= 0 || lastRound.GVT <= 0 {
		t.Fatalf("last round sample = %+v", lastRound)
	}
	if lastRound.MPISentBytes == 0 {
		t.Fatal("MPI sent bytes never sampled (2-node run must have MPI traffic)")
	}
	// The engine registers its histograms; a 2-node optimistic run drains
	// inboxes, so inbox_drain_batch must have observations.
	found := false
	for _, h := range rep.Histograms {
		if h.Name == "inbox_drain_batch" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inbox_drain_batch histogram missing or empty: %+v", rep.Histograms)
	}
	// The trace must carry the v1 record types alongside commits/rounds.
	if a.TraceVersion != trace.Version {
		t.Fatalf("trace version = %d", a.TraceVersion)
	}
	if a.Commits != rep.Stats.Committed {
		t.Fatalf("trace commits %d != report committed %d", a.Commits, rep.Stats.Committed)
	}
	recvs := 0
	if err := trace.NewReader(bytes.NewReader(raw)).ForEach(trace.Visitor{MPIRecv: func(trace.MPIRecv) { recvs++ }}); err != nil {
		t.Fatal(err)
	}
	if len(a.MPI) == 0 || recvs == 0 {
		t.Fatalf("no MPI records in trace: %d sending nodes, %d receives", len(a.MPI), recvs)
	}
	if len(a.Phases) == 0 {
		t.Fatal("no phase transitions in trace")
	}
	if a.Rollbacks.Episodes != rep.Stats.Rollbacks {
		t.Fatalf("trace rollbacks %d != stats %d", a.Rollbacks.Episodes, rep.Stats.Rollbacks)
	}
}

// TestTelemetryDoesNotPerturb asserts the run with full telemetry
// commits the identical event stream at the identical virtual-time rate:
// sampling and tracing run outside simulated cost, so the committed-event
// rate must differ by far less than the 5%% acceptance bound — it must
// not differ at all.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	cfg := testConfig(2, 2, 8, core.GVTControlled, core.CommDedicated)
	bare := core.New(cfg)
	rBare, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, rep, _, _ := runWithTelemetry(t, testConfig(2, 2, 8, core.GVTControlled, core.CommDedicated))

	if got, want := rep.Stats.CommitChecksum, metrics.Checksum(rBare.CommitChecksum); got != want {
		t.Fatalf("telemetry changed the committed stream: %s != %s", got, want)
	}
	if rBare.EventRate() <= 0 {
		t.Fatal("bare run has no event rate")
	}
	diff := math.Abs(rep.Stats.EventRate-rBare.EventRate()) / rBare.EventRate()
	if diff >= 0.05 {
		t.Fatalf("telemetry overhead %.2f%% >= 5%% (rates %.4g vs %.4g)",
			100*diff, rep.Stats.EventRate, rBare.EventRate())
	}
}

// jsonKeyPaths returns the sorted set of key paths in a JSON document;
// array elements contribute their first element's paths under "[]".
func jsonKeyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := prefix + "." + k
			out[p] = true
			jsonKeyPaths(sub, p, out)
		}
	case []any:
		if len(x) > 0 {
			jsonKeyPaths(x[0], prefix+"[]", out)
		}
	}
}

// TestReportShapeGolden locks the run-report JSON layout: downstream
// plotting scripts key on these paths. Regenerate deliberately with
// `go test ./internal/core -run Golden -update` after a schema bump.
func TestReportShapeGolden(t *testing.T) {
	cfg := testConfig(2, 2, 8, core.GVTControlled, core.CommDedicated)
	_, rep, _, _ := runWithTelemetry(t, cfg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	jsonKeyPaths(doc, "", paths)
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "report_shape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report JSON shape changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRollbackTraceConsistency checks rollback records against the
// engine's own counters across GVT algorithms.
func TestRollbackTraceConsistency(t *testing.T) {
	for _, gvt := range allGVT() {
		t.Run(fmt.Sprint(gvt), func(t *testing.T) {
			cfg := testConfig(2, 2, 8, gvt, core.CommDedicated)
			_, rep, a, _ := runWithTelemetry(t, cfg)
			if rb := a.Rollbacks; rb.Episodes != rep.Stats.Rollbacks || rb.Undone != rep.Stats.RolledBack {
				t.Fatalf("trace (%d episodes, %d undone) != stats (%d, %d)",
					rb.Episodes, rb.Undone, rep.Stats.Rollbacks, rep.Stats.RolledBack)
			}
		})
	}
}
