package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/run"
)

// miniOptions keeps harness tests fast: tiny cluster, short run.
func miniOptions() Options {
	return Options{
		WorkersPerNode: 2,
		LPsPerWorker:   4,
		EndTime:        10,
		Seed:           3,
		NodeCounts:     []int{1, 2},
		CAThreshold:    0.8,
	}
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12",
		"efficiency", "disparity", "interval", "threshold", "epg", "shared", "queue",
		"checkpoint", "samadi", "rebalance", "crossover", "matrix",
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestFindAndIDs(t *testing.T) {
	if _, ok := Find("fig6"); !ok {
		t.Error("Find(fig6) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Error("IDs length mismatch")
	}
}

func TestFig5Structure(t *testing.T) {
	tab := fig5(miniOptions(), nil)
	if tab.ID != "fig5" {
		t.Errorf("ID = %s", tab.ID)
	}
	if len(tab.Series) != 2 {
		t.Fatalf("fig5 has %d series, want 2", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Cells) != 2 {
			t.Fatalf("series %s has %d cells, want 2", s.Label, len(s.Cells))
		}
		for _, c := range s.Cells {
			if c.Rate <= 0 || c.Committed <= 0 || c.Efficiency <= 0 || c.Efficiency > 1 {
				t.Errorf("series %s: implausible cell %+v", s.Label, c)
			}
		}
	}
}

func TestMixedFigureStructure(t *testing.T) {
	tab := fig10(miniOptions(), nil)
	if len(tab.Series) != 3 {
		t.Fatalf("fig10 has %d series, want 3", len(tab.Series))
	}
	labels := []string{"Mattern", "Barrier", "CA-GVT"}
	for i, s := range tab.Series {
		if s.Label != labels[i] {
			t.Errorf("series %d = %s, want %s", i, s.Label, labels[i])
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := fig5(miniOptions(), nil)
	var text, csv bytes.Buffer
	tab.Render(&text)
	out := text.String()
	for _, want := range []string{"fig5", "Mattern", "Barrier", "nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	tab.CSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + 2 series x 2 node counts
	if len(lines) != 5 {
		t.Errorf("CSV has %d lines, want 5:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,series,nodes,rate") {
		t.Errorf("CSV header = %s", lines[0])
	}
}

func TestSpeedupAndSummary(t *testing.T) {
	tab := Table{
		XVals: []string{"8"},
		Series: []Series{
			{Label: "A", Cells: []Cell{{Rate: 200}}},
			{Label: "B", Cells: []Cell{{Rate: 100}}},
		},
	}
	if s := tab.Speedup("A", "B"); s != 2 {
		t.Errorf("Speedup = %v, want 2", s)
	}
	if s := tab.Speedup("A", "missing"); s != 0 {
		t.Errorf("Speedup missing = %v, want 0", s)
	}
	sum := tab.Summary()
	if !strings.HasPrefix(sum, "A 200") {
		t.Errorf("Summary = %q", sum)
	}
}

func TestVerboseWritesRuns(t *testing.T) {
	opt := miniOptions()
	opt.Verbose = true
	var buf bytes.Buffer
	spec := runSpec{Spec: run.Spec{Nodes: 1, GVT: "barrier", Scenario: "comp", GVTInterval: 10}}
	spec.execute(opt, &buf)
	if !strings.Contains(buf.String(), "rate=") {
		t.Errorf("verbose output missing: %q", buf.String())
	}
}

func TestSingleNodeDropsRemoteTraffic(t *testing.T) {
	opt := miniOptions()
	spec := runSpec{Spec: run.Spec{Nodes: 1, GVT: "barrier", Scenario: "comm", GVTInterval: 10}}
	// Must not panic (phold rejects remote percentages on one node).
	spec.execute(opt, nil)
}

func TestFailedRunRecordsCellAndContinues(t *testing.T) {
	// An unknown fault scenario makes every run fail; the sweep must not
	// panic, and each cell must carry the error instead of measurements.
	opt := miniOptions()
	opt.FaultScenario = "not-a-scenario"
	var buf bytes.Buffer
	cells := sweep(opt, &buf, runSpec{Spec: run.Spec{GVT: "barrier", Scenario: "comp", GVTInterval: 10}})
	if len(cells) != len(opt.NodeCounts) {
		t.Fatalf("sweep recorded %d cells, want %d", len(cells), len(opt.NodeCounts))
	}
	for i, c := range cells {
		if !c.Failed {
			t.Errorf("cell %d not marked failed: %+v", i, c)
		}
		if !strings.Contains(c.Error, "not-a-scenario") {
			t.Errorf("cell %d error %q does not name the scenario", i, c.Error)
		}
		if c.Rate != 0 || c.Committed != 0 {
			t.Errorf("failed cell %d carries measurements: %+v", i, c)
		}
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Errorf("sweep output does not report the failure: %q", buf.String())
	}
	var text bytes.Buffer
	Table{XVals: []string{"1", "2"}, Series: []Series{{Label: "faulty", Cells: cells}}}.Render(&text)
	if !strings.Contains(text.String(), "FAILED") {
		t.Errorf("Render does not mark failed cells: %q", text.String())
	}
}

// panicOnce is a writer whose first Write panics.
type panicOnce struct{ done bool }

func (p *panicOnce) Write(b []byte) (int, error) {
	if !p.done {
		p.done = true
		panic("writer exploded")
	}
	return len(b), nil
}

func TestPanickingRunRecordsCell(t *testing.T) {
	// A panic anywhere inside a run (an engine invariant, a model bug —
	// here the verbose line's writer) must become a failed cell, not tear
	// down the sweep.
	opt := miniOptions()
	opt.Verbose = true
	spec := runSpec{Spec: run.Spec{Nodes: 1, GVT: "barrier", Scenario: "comp", GVTInterval: 10}}
	c := spec.execute(opt, &panicOnce{})
	if !c.Failed || !strings.Contains(c.Error, "panicked") {
		t.Fatalf("cell = %+v, want a recovered panic", c)
	}
}

func TestFaultScenarioOption(t *testing.T) {
	// A real scenario must still produce a valid measured cell.
	opt := miniOptions()
	opt.FaultScenario = "drop"
	spec := runSpec{Spec: run.Spec{Nodes: 2, GVT: "mattern", Scenario: "comp", GVTInterval: 10}}
	c := spec.execute(opt, nil)
	if c.Failed {
		t.Fatalf("drop-scenario run failed: %s", c.Error)
	}
	if c.Rate <= 0 || c.Committed <= 0 {
		t.Errorf("implausible faulty cell %+v", c)
	}
}

func TestDefaultOptionsSane(t *testing.T) {
	opt := DefaultOptions()
	if opt.WorkersPerNode <= 0 || opt.LPsPerWorker <= 0 || opt.EndTime <= 0 ||
		len(opt.NodeCounts) == 0 || opt.CAThreshold <= 0 {
		t.Errorf("DefaultOptions insane: %+v", opt)
	}
}

func TestRebalanceExperiment(t *testing.T) {
	// The rebalance table runs every policy under the straggler scenario.
	// Structure: one series per policy, a cell per node count; on the
	// multi-node cells the migrating policies must actually move LPs and
	// the static series never does.
	opt := miniOptions()
	opt.NodeCounts = []int{2}
	opt.EndTime = 60
	tab := ablRebalance(opt, nil)
	if len(tab.Series) != 3 {
		t.Fatalf("rebalance has %d series, want 3", len(tab.Series))
	}
	labels := []string{"static", "greedy", "straggler"}
	for i, s := range tab.Series {
		if s.Label != labels[i] {
			t.Errorf("series %d = %s, want %s", i, s.Label, labels[i])
		}
		if len(s.Cells) != 1 || s.Cells[0].Failed {
			t.Fatalf("series %s cells: %+v", s.Label, s.Cells)
		}
		c := s.Cells[0]
		if s.Label == "static" && c.Migrations != 0 {
			t.Errorf("static series migrated %d LPs", c.Migrations)
		}
		if s.Label != "static" && c.Migrations == 0 {
			t.Errorf("%s series never migrated", s.Label)
		}
		if c.Committed != tab.Series[0].Cells[0].Committed {
			t.Errorf("%s committed %d events, static committed %d — stream diverged",
				s.Label, c.Committed, tab.Series[0].Cells[0].Committed)
		}
	}
}

func TestBalancePolicyOption(t *testing.T) {
	// Options.BalancePolicy applies to cells that do not pin their own
	// policy; an unknown name must fail the cell, not panic the sweep.
	opt := miniOptions()
	opt.BalancePolicy = "greedy"
	c := runSpec{Spec: run.Spec{Nodes: 2, GVT: "ca-gvt", Scenario: "comp", GVTInterval: 10}}.execute(opt, nil)
	if c.Failed {
		t.Fatalf("greedy run failed: %s", c.Error)
	}
	opt.BalancePolicy = "bogus"
	c = runSpec{Spec: run.Spec{Nodes: 2, GVT: "ca-gvt", Scenario: "comp", GVTInterval: 10}}.execute(opt, nil)
	if !c.Failed || !strings.Contains(c.Error, "bogus") {
		t.Fatalf("bogus policy cell = %+v, want failure naming the policy", c)
	}
}

func TestCrossoverExperiment(t *testing.T) {
	// All three engines must measure successfully and commit the identical
	// event stream — the cross-paradigm parity the engines are tested for.
	tab := crossover(miniOptions(), nil)
	if len(tab.Series) != 3 {
		t.Fatalf("crossover has %d series, want 3", len(tab.Series))
	}
	for _, s := range tab.Series {
		for i, c := range s.Cells {
			if c.Failed {
				t.Fatalf("series %s cell %d failed: %s", s.Label, i, c.Error)
			}
			if want := tab.Series[0].Cells[i].Committed; c.Committed != want {
				t.Errorf("series %s cell %d committed %d, Time Warp committed %d — stream diverged",
					s.Label, i, c.Committed, want)
			}
		}
	}
	// The 2-node null-message cell must have exchanged real null traffic.
	for _, s := range tab.Series {
		if s.Label == "Conservative/nullmsg" && s.Cells[1].NullMsgs == 0 {
			t.Error("2-node nullmsg cell exchanged no null messages")
		}
		if strings.HasPrefix(s.Label, "Conservative") {
			for i, c := range s.Cells {
				if c.Rollbacks != 0 || c.Efficiency != 1 {
					t.Errorf("series %s cell %d: rollbacks=%d eff=%v, conservative must never speculate",
						s.Label, i, c.Rollbacks, c.Efficiency)
				}
			}
		}
	}
}

func TestMatrixExperiment(t *testing.T) {
	// The full grid: every model column commits one stream across all six
	// engine configurations.
	opt := miniOptions()
	opt.NodeCounts = []int{2}
	tab := matrix(opt, nil)
	if len(tab.Series) != 6 {
		t.Fatalf("matrix has %d series, want 6", len(tab.Series))
	}
	if len(tab.XVals) != 4 {
		t.Fatalf("matrix has %d models, want 4", len(tab.XVals))
	}
	for _, s := range tab.Series {
		if len(s.Cells) != 4 {
			t.Fatalf("series %s has %d cells, want 4", s.Label, len(s.Cells))
		}
		for i, c := range s.Cells {
			if c.Failed {
				t.Fatalf("series %s model %s failed: %s", s.Label, tab.XVals[i], c.Error)
			}
			if want := tab.Series[0].Cells[i].Committed; c.Committed != want {
				t.Errorf("series %s model %s committed %d, want %d — stream diverged",
					s.Label, tab.XVals[i], c.Committed, want)
			}
		}
	}
}

func TestSyncFilter(t *testing.T) {
	opt := miniOptions()
	opt.Sync = "window"
	tab := crossover(opt, nil)
	if len(tab.Series) != 1 || tab.Series[0].Label != "Conservative/window" {
		t.Fatalf("window filter kept %+v", tab.Series)
	}
	opt.Sync = "timewarp"
	opt.NodeCounts = []int{1}
	if tab := matrix(opt, nil); len(tab.Series) != 4 {
		t.Fatalf("timewarp filter kept %d matrix series, want 4", len(tab.Series))
	}
}

func TestMatrixParallelDeterminism(t *testing.T) {
	// The cross-paradigm grid through the two-pass executor: -jobs N must
	// be byte-identical to the sequential path, conservative cells included.
	e, ok := Find("matrix")
	if !ok {
		t.Fatal("matrix not registered")
	}
	opt := miniOptions()
	opt.NodeCounts = []int{2}
	opt.Verbose = true
	var seqOut, parOut bytes.Buffer
	opt.Jobs = 1
	seq := e.Execute(opt, &seqOut)
	opt.Jobs = 4
	par := e.Execute(opt, &parOut)
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel matrix table differs from sequential")
	}
	if !bytes.Equal(seqOut.Bytes(), parOut.Bytes()) {
		t.Errorf("parallel output differs:\nseq: %q\npar: %q", seqOut.String(), parOut.String())
	}
}
