package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conservative"
	"repro/internal/phold"
	"repro/internal/run"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// genTrace runs a small conservative PHOLD configuration with a trace
// writer attached and returns the binary trace. The engine runs on a
// deterministic simulated clock, so the bytes are stable across hosts —
// which is what lets the analysis output be pinned by golden files.
func genTrace(t *testing.T, sync conservative.SyncKind) []byte {
	t.Helper()
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 2}
	params := phold.Params{Topology: top}
	params.Base = phold.ComputationDominated()
	params.Base.RemotePct = 0.3 // enough cross-node traffic for node inference
	var buf bytes.Buffer
	cfg := conservative.Config{
		Topology:  top,
		Sync:      sync,
		Lookahead: 0.1,
		EndTime:   10,
		Seed:      3,
		Model:     phold.New(params),
		Trace:     trace.NewWriter(&buf),
	}
	eng := conservative.New(cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestAnalysisGolden pins the whole -json document — utilization and
// horizon-roughness analysis included — for both conservative
// protocols. Regenerate with `go test ./cmd/tracestat -update` after an
// intentional schema or engine change.
func TestAnalysisGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync conservative.SyncKind
	}{
		{"conservative_nullmsg", conservative.SyncNullMsg},
		{"conservative_window", conservative.SyncWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := genTrace(t, tc.sync)
			a, err := trace.Analyze(bytes.NewReader(raw), 20)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			got, err := json.MarshalIndent(a, "", " ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("analysis differs from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
			}
		})
	}
}

// TestUtilizationAnalysis checks the semantic shape of the new analysis
// independent of the golden bytes.
func TestUtilizationAnalysis(t *testing.T) {
	raw := genTrace(t, conservative.SyncWindow)
	a, err := trace.Analyze(bytes.NewReader(raw), 20)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ut := a.Utilization
	if ut == nil {
		t.Fatal("no utilization analysis on a 2-node trace")
	}
	if len(ut.Nodes) != 2 {
		t.Fatalf("utilization covers %d nodes, want 2", len(ut.Nodes))
	}
	if ut.Rounds <= 0 {
		t.Fatalf("utilization saw %d rounds", ut.Rounds)
	}
	for _, n := range ut.Nodes {
		if n.Utilization < 0 || n.Utilization > 1 {
			t.Errorf("node %d utilization %v out of [0,1]", n.Node, n.Utilization)
		}
	}
	if ut.MeanUtilization <= 0 || ut.MeanUtilization > 1 {
		t.Errorf("mean utilization %v out of (0,1]", ut.MeanUtilization)
	}
	if ut.MinUtilization > ut.MeanUtilization {
		t.Errorf("min %v > mean %v", ut.MinUtilization, ut.MeanUtilization)
	}
	if ut.MeanHorizonWidth < 0 || ut.MeanHorizonStddev < 0 {
		t.Errorf("negative roughness: width %v stddev %v", ut.MeanHorizonWidth, ut.MeanHorizonStddev)
	}
	if ut.MeanHorizonStddev > ut.MeanHorizonWidth {
		t.Errorf("stddev %v exceeds width %v", ut.MeanHorizonStddev, ut.MeanHorizonWidth)
	}
	// The moving window bounds how far the horizon can fray: one window
	// (lookahead) plus the batch overshoot. A much larger width means
	// the analysis attributed commits to the wrong nodes.
	if ut.MeanHorizonWidth > 1 {
		t.Errorf("window horizon width %v implausibly large for lookahead 0.1", ut.MeanHorizonWidth)
	}
	// A single-node trace has no between-node desynchronization.
	single := genSingleNodeTrace(t)
	a, err = trace.Analyze(bytes.NewReader(single), 20)
	if err != nil {
		t.Fatalf("analyze single: %v", err)
	}
	if a.Utilization != nil {
		t.Error("utilization analysis present on a single-node trace")
	}
}

func genSingleNodeTrace(t *testing.T) []byte {
	t.Helper()
	top := cluster.Topology{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 2}
	params := phold.Params{Topology: top}
	params.Base = phold.ComputationDominated()
	params.Base.RemotePct = 0
	var buf bytes.Buffer
	cfg := conservative.Config{
		Topology:  top,
		Sync:      conservative.SyncWindow,
		Lookahead: 0.1,
		EndTime:   10,
		Seed:      3,
		Model:     phold.New(params),
		Trace:     trace.NewWriter(&buf),
	}
	eng := conservative.New(cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// genMigratingTrace runs a small Time Warp configuration whose straggler
// node makes the greedy balancer migrate LPs, and returns its trace.
func genMigratingTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	eng, err := run.New(run.Spec{
		Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, GVT: "ca-gvt",
		Balance: "greedy", Faults: "straggler", EndTime: 60, Seed: 3,
	}, run.Attach{Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Migrations == 0 {
		t.Fatal("the run migrated no LP: the trace does not exercise the placement replay")
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestImbalanceGolden pins the -json document of a Time Warp trace with
// migrations, so the imbalance analysis — per-node shares replayed
// against the migration marks — is held to golden bytes as the
// conservative analyses are. Regenerate with -update.
func TestImbalanceGolden(t *testing.T) {
	a, err := trace.Analyze(bytes.NewReader(genMigratingTrace(t)), 20)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.Imbalance == nil || a.Imbalance.Migrations == 0 {
		t.Fatalf("imbalance analysis %+v saw no migration", a.Imbalance)
	}
	got, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "timewarp_migrating.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analysis differs from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
	}
}

// TestRenderGolden pins the human-readable report of the three golden
// traces, byte for byte. Regenerate with -update.
func TestRenderGolden(t *testing.T) {
	for name, gen := range map[string]func(*testing.T) []byte{
		"conservative_nullmsg": func(t *testing.T) []byte { return genTrace(t, conservative.SyncNullMsg) },
		"conservative_window":  func(t *testing.T) []byte { return genTrace(t, conservative.SyncWindow) },
		"timewarp_migrating":   genMigratingTrace,
	} {
		t.Run(name, func(t *testing.T) {
			a, err := trace.Analyze(bytes.NewReader(gen(t)), 20)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			var got bytes.Buffer
			render(&got, a)
			golden := filepath.Join("testdata", name+".golden.txt")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from %s (run with -update after intentional changes)\ngot:\n%s", golden, got.Bytes())
			}
		})
	}
}
