package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
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

// table executes the registered experiment id and returns its table.
func table(t *testing.T, id string, opt Options) Table {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e.Execute(opt, nil)
}

// cellAt is the cell a plan would hold for spec at the given node count.
func cellAt(opt Options, nodes int, spec run.Spec) cell {
	c := cell{spec: opt.resolve(spec)}
	c.spec.Nodes = nodes
	return c
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12",
		"efficiency", "disparity", "interval", "threshold", "epg", "shared",
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
		if len(e.series) == 0 || e.Title == "" || e.Paper == "" {
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
	tab := table(t, "fig5", miniOptions())
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
	tab := table(t, "fig10", miniOptions())
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
	tab := table(t, "fig5", miniOptions())
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

// TestDisparityTableShowsDisparity: the disparity figure's text and
// markdown cells are each run's LVT disparity, not its rate and
// efficiency.
func TestDisparityTableShowsDisparity(t *testing.T) {
	tab := table(t, "disparity", miniOptions())
	var text, md bytes.Buffer
	tab.Render(&text)
	tab.Markdown(&md)
	lines := strings.Split(text.String(), "\n")
	for _, s := range tab.Series {
		c := s.Cells[0]
		if c.Disparity <= 0 {
			t.Fatalf("%s: disparity %v, want a positive one to tell it apart", s.Label, c.Disparity)
		}
		row := fmt.Sprintf("%-*s  %16.4g", len("Mattern")+2, s.Label, c.Disparity)
		if !slices.Contains(lines, row) {
			t.Errorf("Render has no row %q:\n%s", row, text.String())
		}
		if row := fmt.Sprintf("| %s | %.3g |\n", s.Label, c.Disparity); !strings.Contains(md.String(), row) {
			t.Errorf("Markdown has no row %q:\n%s", row, md.String())
		}
	}
	if strings.Contains(text.String()+md.String(), "%") {
		t.Errorf("the disparity figure prints efficiencies:\n%s%s", text.String(), md.String())
	}
}

func TestVerboseWritesRuns(t *testing.T) {
	opt := miniOptions()
	opt.Verbose = true
	var buf bytes.Buffer
	c := cellAt(opt, 1, run.Spec{GVT: "barrier", Scenario: "comp", GVTInterval: 10})
	c.execute(opt, &buf)
	if !strings.Contains(buf.String(), "rate=") {
		t.Errorf("verbose output missing: %q", buf.String())
	}
}

func TestSingleNodeDropsRemoteTraffic(t *testing.T) {
	opt := miniOptions()
	c := cellAt(opt, 1, run.Spec{GVT: "barrier", Scenario: "comm", GVTInterval: 10})
	// Must not fail (phold rejects remote percentages on one node).
	if res := c.execute(opt, io.Discard); res.Failed {
		t.Fatalf("single-node comm cell failed: %s", res.Error)
	}
}

func TestFailedRunRecordsCellAndContinues(t *testing.T) {
	// An unknown fault scenario makes every run fail; the sweep must not
	// panic, and each cell must carry the error instead of measurements.
	opt := miniOptions()
	opt.FaultScenario = "not-a-scenario"
	e, _ := Find("fig5")
	var buf bytes.Buffer
	tab := e.Execute(opt, &buf)
	cells := tab.Series[1].Cells
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
	failed := 0
	for _, s := range tab.Series {
		for _, c := range s.Cells {
			if c.Failed {
				failed++
			}
		}
	}
	// Both renderers, in the rate figures and in the disparity figure,
	// print every failed cell as FAILED, never as a measurement of zero.
	for _, id := range []string{tab.ID, "disparity"} {
		tab.ID = id
		var text, md bytes.Buffer
		tab.Render(&text)
		tab.Markdown(&md)
		for _, out := range []struct{ name, s string }{{"Render", text.String()}, {"Markdown", md.String()}} {
			if n := strings.Count(out.s, "FAILED"); n != failed {
				t.Errorf("%s of %s marks %d cells FAILED, want %d: %q", out.name, id, n, failed, out.s)
			}
		}
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
	c := cellAt(opt, 1, run.Spec{GVT: "barrier", Scenario: "comp", GVTInterval: 10})
	res := c.execute(opt, &panicOnce{})
	if !res.Failed || !strings.Contains(res.Error, "panicked") {
		t.Fatalf("cell = %+v, want a recovered panic", res)
	}
}

func TestFaultScenarioOption(t *testing.T) {
	// A real scenario must still produce a valid measured cell.
	opt := miniOptions()
	opt.FaultScenario = "drop"
	c := cellAt(opt, 2, run.Spec{GVT: "mattern", Scenario: "comp", GVTInterval: 10}).execute(opt, io.Discard)
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
	tab := table(t, "rebalance", opt)
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
	spec := run.Spec{GVT: "ca-gvt", Scenario: "comp", GVTInterval: 10}
	c := cellAt(opt, 2, spec).execute(opt, io.Discard)
	if c.Failed {
		t.Fatalf("greedy run failed: %s", c.Error)
	}
	opt.BalancePolicy = "bogus"
	c = cellAt(opt, 2, spec).execute(opt, io.Discard)
	if !c.Failed || !strings.Contains(c.Error, "bogus") {
		t.Fatalf("bogus policy cell = %+v, want failure naming the policy", c)
	}
}

func TestCrossoverExperiment(t *testing.T) {
	// All three engines must measure successfully and commit the identical
	// event stream — the cross-paradigm parity the engines are tested for.
	tab := table(t, "crossover", miniOptions())
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
	tab := table(t, "matrix", opt)
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

// TestWideCellsRun: at the default node counts and workers per node the
// cross-paradigm grids run every cell, the 8-node ones included, where
// dozens of idle threads park and wake in lockstep. Short runs keep it
// quick; the widths are what matter.
func TestWideCellsRun(t *testing.T) {
	opt := DefaultOptions()
	opt.LPsPerWorker, opt.EndTime = 4, 1
	for _, id := range []string{"crossover", "matrix"} {
		tab := table(t, id, opt)
		for _, s := range tab.Series {
			for i, c := range s.Cells {
				if c.Failed {
					t.Errorf("%s: series %s cell %s failed: %s", id, s.Label, tab.XVals[i], c.Error)
				}
			}
		}
	}
}

func TestSyncFilter(t *testing.T) {
	opt := miniOptions()
	opt.Sync = "window"
	tab := table(t, "crossover", opt)
	if len(tab.Series) != 1 || tab.Series[0].Label != "Conservative/window" {
		t.Fatalf("window filter kept %+v", tab.Series)
	}
	opt.Sync = "timewarp"
	opt.NodeCounts = []int{1}
	if tab := table(t, "matrix", opt); len(tab.Series) != 4 {
		t.Fatalf("timewarp filter kept %d matrix series, want 4", len(tab.Series))
	}
}

func TestMatrixParallelDeterminism(t *testing.T) {
	// The cross-paradigm grid on several workers: -jobs N must be
	// byte-identical to -jobs 1, conservative cells included.
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

// planDigest fingerprints an experiment's plan: heading, x axis, series
// labels and every cell's content address and EPG override.
func planDigest(e Experiment, opt Options) string {
	p := e.plan(opt)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%s|%q\n", e.ID, e.Title, e.Paper, p.xLabel, p.xVals)
	for _, s := range p.series {
		fmt.Fprintf(h, "series %q\n", s.label)
		for _, c := range s.cells {
			hash, err := c.spec.Hash()
			if err != nil {
				hash = fmt.Sprintf("%s: %v", specText(c.spec), err)
			}
			fmt.Fprintf(h, "%s epg=%d\n", hash, c.epg)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedSpecOrder is the order %+v printed run.Spec's fields in when
// the digests below were pinned (before the fields were declared in JSON
// key order). A cell whose spec is invalid has no content address, so it
// is digested as that text: the pins do not move with declaration order.
var pinnedSpecOrder = []string{"Engine", "Sync", "Lookahead", "Model", "Scenario", "MixComp", "MixComm",
	"Nodes", "WorkersPerNode", "LPsPerWorker", "GVT", "Comm", "GVTInterval", "CAThreshold", "EndTime", "Seed",
	"Queue", "Pool", "BatchSize", "CheckpointInterval", "MaxUncommitted", "Faults", "Balance", "WatchdogMicros"}

func specText(s run.Spec) string {
	v := reflect.ValueOf(s)
	fields := make([]string, len(pinnedSpecOrder))
	for i, name := range pinnedSpecOrder {
		fields[i] = fmt.Sprintf("%s:%v", name, v.FieldByName(name))
	}
	return "{" + strings.Join(fields, " ") + "}"
}

// TestPlansPinned pins what every experiment runs. The digests were
// captured from the imperative figure functions this table replaced, so
// a changed digest means a figure now measures something else; re-pin
// only with a change that says so.
func TestPlansPinned(t *testing.T) {
	overridden := miniOptions()
	overridden.Sync = "window"
	overridden.FaultScenario = "drop"
	overridden.BalancePolicy = "greedy"
	overridden.GVTInterval = 6
	for _, tc := range []struct {
		name string
		opt  Options
		want map[string]string
	}{
		{"mini", miniOptions(), map[string]string{
			"fig3":       "ba33744d5b39d9cb",
			"fig4":       "484855c8cfe7f359",
			"fig5":       "d1c7ecefabf4ce46",
			"fig6":       "718f983007aac150",
			"fig8":       "18a4936c848f3975",
			"fig9":       "0c9078c71a8aaa70",
			"fig10":      "fa48d63ed4aa3481",
			"fig11":      "89f70d888fb8647a",
			"fig12":      "6d9070087082ae0e",
			"efficiency": "047de3211e5c9c0f",
			"disparity":  "c1748eebbeba33b7",
			"interval":   "be76f3e1968a4aa4",
			"threshold":  "140cff90f450ed79",
			"epg":        "b65cc2f501c7033c",
			"shared":     "5b2912123926dd46",
			"checkpoint": "aed12900b651c702",
			"samadi":     "c37072a937258396",
			"rebalance":  "f1cd664a6ceca7cc",
			"crossover":  "2c39a395849135fd",
			"matrix":     "72fbec5ad6d10ac2",
		}},
		{"overridden", overridden, map[string]string{
			"fig3":       "8eb39a07dda5ec5f",
			"fig4":       "ec63f473968b2243",
			"fig5":       "a91cf9479297def0",
			"fig6":       "46cbe1d952d5c03b",
			"fig8":       "f0a1ff8327d1c4c6",
			"fig9":       "f98c6c56be3a60a2",
			"fig10":      "916f72c38ae7cdd2",
			"fig11":      "bfc7fd1c31c41d90",
			"fig12":      "5d29862a4053eab4",
			"efficiency": "c4a02569797a7a2d",
			"disparity":  "69a02eaac892d3e8",
			"interval":   "34303e2d4ed10c6e",
			"threshold":  "355c5f85619d652f",
			"epg":        "9b53cae9f6c6fd27",
			"shared":     "4f6ad2f7b2b546c2",
			"checkpoint": "f6a0702805798f24",
			"samadi":     "6a8d6e33823cda2e",
			"rebalance":  "a0b0285b493e34fb",
			"crossover":  "786387028db82e76",
			"matrix":     "0b668f327f4fb8ad",
		}},
	} {
		for _, e := range Registry() {
			if got := planDigest(e, tc.opt); got != tc.want[e.ID] {
				t.Errorf("%s/%s: plan digest %s, pinned %s", tc.name, e.ID, got, tc.want[e.ID])
			}
		}
	}
}
