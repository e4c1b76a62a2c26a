// Package harness defines and runs the paper's experiments: one
// experiment per figure of the evaluation (Figures 3–12), the efficiency
// and LVT-disparity numbers quoted in the text, and the repo's extra
// ablations. Each experiment produces a Table whose series correspond to
// the figure's curves (committed event rate vs node count, typically).
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/phold"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Options scales the experiments. The defaults are sized so the full
// suite completes in minutes on a laptop; the paper-scale topology
// (60 workers x 128 LPs) is reachable by flag.
type Options struct {
	WorkersPerNode int
	LPsPerWorker   int
	EndTime        vtime.Time
	// GVTInterval overrides the per-experiment default. The defaults are 8
	// for figures 3-4 and 4 otherwise: the interval counts batches of 16
	// processed events here, and these runs are ~100x shorter than the
	// paper's, so the scaled values keep rounds-per-run comparable to the
	// paper's interval 50/25.
	GVTInterval int
	Seed        uint64
	NodeCounts  []int
	CAThreshold float64
	Verbose     bool // print each run's summary line as it finishes

	// FaultScenario, when non-empty, runs every cell under the named
	// built-in fault plan (see fabric.ScenarioNames) with the reliable
	// transport and GVT liveness watchdog active.
	FaultScenario string

	// BalancePolicy, when non-empty, runs every cell under the named LP
	// load-balancing policy (see balance.Names) unless the experiment
	// pins its own per-series policy.
	BalancePolicy string

	// Sync filters the cross-paradigm experiments (crossover, matrix) to
	// one synchronization flavor: "" runs everything, "timewarp" only the
	// optimistic series, "nullmsg" or "window" only that conservative
	// protocol. Experiments without conservative series ignore it.
	Sync string

	// Reports, when non-nil, collects one telemetry run report per engine
	// execution (with per-round time series sampled at SampleCap points).
	Reports *metrics.ReportSet
	// SampleCap bounds each run's sampled series length (0: recorder
	// default).
	SampleCap int

	// Jobs is the host-parallelism degree for Experiment.Execute: how
	// many experiment cells run concurrently on host cores. 0 defaults
	// to GOMAXPROCS, 1 forces the plain sequential path. Output is
	// byte-identical for every value (see Execute).
	Jobs int

	// exec carries the two-pass parallel executor's state; nil outside
	// Experiment.Execute.
	exec *executor
}

// DefaultOptions returns the standard scaled-down configuration.
func DefaultOptions() Options {
	return Options{
		WorkersPerNode: 8,
		LPsPerWorker:   32,
		EndTime:        40,
		Seed:           1,
		NodeCounts:     []int{1, 2, 4, 8},
		CAThreshold:    0.80,
	}
}

// Cell is one measured run. A Failed cell records why the run died
// (engine error or panic) instead of aborting the whole sweep.
type Cell struct {
	Rate        float64 `json:"rate"` // committed events per virtual second
	Efficiency  float64 `json:"efficiency"`
	Rollbacks   int64   `json:"rollbacks"`
	Committed   int64   `json:"committed"`
	WallTime    float64 `json:"wall_s"` // virtual seconds
	Disparity   float64 `json:"disparity"`
	SyncRounds  int64   `json:"sync_rounds"`
	GVTRounds   int64   `json:"gvt_rounds"`
	BarrierWait float64 `json:"barrier_wait_s"`       // virtual seconds summed over workers
	Migrations  int64   `json:"migrations,omitempty"` // LPs moved by the balancer
	NullMsgs    int64   `json:"null_msgs,omitempty"`  // conservative CMB null messages
	Failed      bool    `json:"failed,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func cellOf(r *stats.Run) Cell {
	return Cell{
		Rate:        r.EventRate(),
		Efficiency:  r.Efficiency(),
		Rollbacks:   r.Workers.Rollbacks,
		Committed:   r.Workers.Committed,
		WallTime:    r.WallTime.Seconds(),
		Disparity:   r.Disparity,
		SyncRounds:  r.SyncRounds,
		GVTRounds:   r.GVTRounds,
		BarrierWait: r.Workers.BarrierWait.Seconds(),
		Migrations:  r.Migrations,
		NullMsgs:    r.NullMessages,
	}
}

// Series is one curve of a figure.
type Series struct {
	Label string `json:"label"`
	Cells []Cell `json:"cells"`
}

// Table is one reproduced figure or text statistic.
type Table struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Paper  string   `json:"paper,omitempty"` // what the paper reports (the shape to compare against)
	XLabel string   `json:"x_label"`
	XVals  []string `json:"x_vals"`
	Series []Series `json:"series"`
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options, io.Writer) Table
}

// runSpec is one engine execution: the run descriptor a figure pins
// (Options fills in topology, end time, seed and the global overrides at
// execution time) plus the one model parameter the descriptor has no
// field for. It must stay comparable — the two-pass parallel executor
// keys on it.
type runSpec struct {
	run.Spec
	epgOverride int // >0: override the PHOLD phase EPG (EPG sweep)
}

// resolve completes the figure's spec with the sweep-wide Options.
func (s runSpec) resolve(opt Options) run.Spec {
	sp := s.Spec
	sp.WorkersPerNode, sp.LPsPerWorker = opt.WorkersPerNode, opt.LPsPerWorker
	sp.EndTime, sp.Seed = opt.EndTime, opt.Seed
	if opt.GVTInterval > 0 {
		sp.GVTInterval = opt.GVTInterval
	}
	if sp.CAThreshold == 0 {
		sp.CAThreshold = opt.CAThreshold
	}
	if sp.Balance == "" {
		sp.Balance = opt.BalancePolicy
	}
	sp.Faults = opt.FaultScenario
	return sp
}

// labels names a run for verbose/FAILED lines and for its telemetry
// report. Workloads print as their historical indices (comp 0, comm 1,
// mixed 2).
func labels(c run.Spec) (line, report string) {
	if c.Engine == "conservative" {
		model := c.Model
		if model == "" {
			model = "phold"
		}
		return fmt.Sprintf("%d nodes conservative/%s %s", c.Nodes, c.Sync, model),
			fmt.Sprintf("%dn/conservative/%s/%s", c.Nodes, c.Sync, model)
	}
	wl := map[string]int{"comm": 1, "mixed": 2}[c.Scenario]
	return fmt.Sprintf("%d nodes %s/%s wl=%d", c.Nodes, c.GVT, c.Comm, wl),
		fmt.Sprintf("%dn/%s/%s/wl%d", c.Nodes, c.GVT, c.Comm, wl)
}

// syncEnabled reports whether a series with the given engine and sync
// protocol passes the Options.Sync filter.
func (o Options) syncEnabled(engine, sync string) bool {
	switch o.Sync {
	case "":
		return true
	case "timewarp":
		return engine != "conservative"
	default:
		return engine == "conservative" && sync == o.Sync
	}
}

// execute runs one spec and returns its cell. A failed run (engine error,
// invariant panic, invalid fault scenario) yields a Failed cell instead of
// tearing down the sweep — the remaining cells still get measured.
func (s runSpec) execute(opt Options, w io.Writer) Cell {
	if opt.exec != nil {
		if cell, handled := opt.exec.intercept(s, opt, w); handled {
			return cell
		}
	}
	cell, err := s.run(opt, w)
	if err != nil {
		if w != nil {
			line, _ := labels(s.Spec)
			fmt.Fprintf(w, "  [%s] FAILED: %v\n", line, err)
		}
		return Cell{Failed: true, Error: err.Error()}
	}
	return cell
}

// run builds the cell's engine through run.New, which refuses what the
// chosen engine cannot honour (a fault scenario or balancing policy on a
// conservative cell) instead of silently running without it.
func (s runSpec) run(opt Options, w io.Writer) (cell Cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run %+v panicked: %v", s, r)
		}
	}()
	c, err := s.resolve(opt).Canonical()
	if err != nil {
		return Cell{}, err
	}
	var at run.Attach
	if s.epgOverride > 0 && c.Model == "phold" {
		p := c.PholdParams()
		p.Base.EPG = s.epgOverride
		if p.Mixed != nil {
			p.Mixed.Comm.EPG = s.epgOverride
		}
		at.Model = phold.New(p)
	}
	if opt.Reports != nil {
		at.Metrics = &metrics.Recorder{MaxSamples: opt.SampleCap}
	}
	eng, err := run.New(c, at)
	if err != nil {
		return Cell{}, err
	}
	r, err := eng.Run()
	if err != nil {
		return Cell{}, fmt.Errorf("harness: run %+v failed: %w", s, err)
	}
	line, reportLabel := labels(c)
	if opt.Reports != nil {
		rep := eng.Report(r)
		rep.Config.Label = reportLabel
		opt.Reports.Add(rep)
	}
	if opt.Verbose && w != nil {
		if c.Engine == "conservative" {
			fmt.Fprintf(w, "  [%s] rate=%.4g nulls=%d\n", line, r.EventRate(), r.NullMessages)
		} else {
			fmt.Fprintf(w, "  [%s] rate=%.4g eff=%.1f%% rb=%d\n",
				line, r.EventRate(), 100*r.Efficiency(), r.Workers.Rollbacks)
		}
	}
	return cellOf(r), nil
}

// sweep runs one curve across the node counts.
func sweep(opt Options, w io.Writer, base runSpec) []Cell {
	cells := make([]Cell, 0, len(opt.NodeCounts))
	for _, n := range opt.NodeCounts {
		s := base
		s.Nodes = n
		cells = append(cells, s.execute(opt, w))
	}
	return cells
}

func nodeLabels(opt Options) []string {
	xs := make([]string, len(opt.NodeCounts))
	for i, n := range opt.NodeCounts {
		xs[i] = fmt.Sprintf("%d", n)
	}
	return xs
}

// Registry returns all experiments, ordered as in the paper.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Dedicated MPI thread, computation-dominated", Run: fig3},
		{ID: "fig4", Title: "Dedicated MPI thread, communication-dominated", Run: fig4},
		{ID: "fig5", Title: "Mattern vs Barrier, computation-dominated", Run: fig5},
		{ID: "fig6", Title: "Mattern vs Barrier, communication-dominated", Run: fig6},
		{ID: "fig8", Title: "Mattern vs Barrier vs CA-GVT, computation-dominated", Run: fig8},
		{ID: "fig9", Title: "Mattern vs Barrier vs CA-GVT, communication-dominated", Run: fig9},
		{ID: "fig10", Title: "Mixed 10-15 model", Run: fig10},
		{ID: "fig11", Title: "Mixed 15-10 model", Run: fig11},
		{ID: "fig12", Title: "Mixed 5-5 model", Run: fig12},
		{ID: "efficiency", Title: "Efficiency numbers quoted in the text", Run: efficiencyTable},
		{ID: "disparity", Title: "LVT disparity (avg per-round stddev)", Run: disparityTable},
		{ID: "interval", Title: "Ablation: GVT interval sensitivity", Run: ablInterval},
		{ID: "threshold", Title: "Ablation: CA-GVT efficiency threshold", Run: ablThreshold},
		{ID: "epg", Title: "Ablation: EPG sweep (Barrier/Mattern crossover)", Run: ablEPG},
		{ID: "shared", Title: "Ablation: every thread does MPI", Run: ablShared},
		{ID: "queue", Title: "Ablation: pending-set implementation", Run: ablQueue},
		{ID: "checkpoint", Title: "Ablation: state-saving interval", Run: ablCheckpoint},
		{ID: "samadi", Title: "Ablation: Samadi ack-based GVT vs the paper's algorithms", Run: ablSamadi},
		{ID: "rebalance", Title: "Dynamic load balancing under a straggler node", Run: ablRebalance},
		{ID: "crossover", Title: "Optimistic vs conservative engines, PHOLD", Run: crossover},
		{ID: "matrix", Title: "Cross-paradigm scenario matrix: 4 models x 6 engine configs", Run: matrix},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// --- the figures ---

func commThreadFigure(id, title, paper string, wl string, opt Options, w io.Writer) Table {
	t := Table{
		ID: id, Title: title, Paper: paper,
		XLabel: "nodes", XVals: nodeLabels(opt),
	}
	for _, c := range []struct {
		label string
		gvt   string
		comm  string
	}{
		{"Mattern dedicated", "mattern", "dedicated"},
		{"Mattern combined", "mattern", "combined"},
		{"Barrier dedicated", "barrier", "dedicated"},
		{"Barrier combined", "barrier", "combined"},
	} {
		t.Series = append(t.Series, Series{
			Label: c.label,
			Cells: sweep(opt, w, runSpec{Spec: run.Spec{GVT: c.gvt, Comm: c.comm, Scenario: wl, GVTInterval: 8}}),
		})
	}
	return t
}

func fig3(opt Options, w io.Writer) Table {
	return commThreadFigure("fig3",
		"Dedicated MPI thread, computation-dominated workload",
		"Dedicated beats combined for both algorithms at every node count; at 8 nodes Mattern +51%, Barrier +17%.",
		"comp", opt, w)
}

func fig4(opt Options, w io.Writer) Table {
	return commThreadFigure("fig4",
		"Dedicated MPI thread, communication-dominated workload",
		"Dedicated wins much bigger under communication load: Mattern 14.59x, Barrier 4.29x at 8 nodes.",
		"comm", opt, w)
}

func twoWayFigure(id, title, paper string, wl string, opt Options, w io.Writer) Table {
	t := Table{ID: id, Title: title, Paper: paper, XLabel: "nodes", XVals: nodeLabels(opt)}
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
	} {
		t.Series = append(t.Series, Series{
			Label: c.label,
			Cells: sweep(opt, w, runSpec{Spec: run.Spec{GVT: c.gvt, Comm: "dedicated", Scenario: wl, GVTInterval: 4}}),
		})
	}
	return t
}

func fig5(opt Options, w io.Writer) Table {
	return twoWayFigure("fig5",
		"Mattern vs Barrier, computation-dominated workload",
		"Mattern wins when computation dominates: 27.9% faster than Barrier at 8 nodes.",
		"comp", opt, w)
}

func fig6(opt Options, w io.Writer) Table {
	return twoWayFigure("fig6",
		"Mattern vs Barrier, communication-dominated workload",
		"Barrier wins when communication dominates: 14.5% faster at 8 nodes; Mattern efficiency collapses (64.3% vs 94.2%).",
		"comm", opt, w)
}

func threeWayFigure(id, title, paper string, wl string, x, y float64, opt Options, w io.Writer) Table {
	t := Table{ID: id, Title: title, Paper: paper, XLabel: "nodes", XVals: nodeLabels(opt)}
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
		{"CA-GVT", "ca-gvt"},
	} {
		t.Series = append(t.Series, Series{
			Label: c.label,
			Cells: sweep(opt, w, runSpec{Spec: run.Spec{
				GVT: c.gvt, Comm: "dedicated", Scenario: wl,
				MixComp: x, MixComm: y, GVTInterval: 4,
			}}),
		})
	}
	return t
}

func fig8(opt Options, w io.Writer) Table {
	return threeWayFigure("fig8",
		"Three-way comparison, computation-dominated workload",
		"CA-GVT 8% slower than Mattern, 19% faster than Barrier at 8 nodes (stays asynchronous; efficiency ~93%).",
		"comp", 0, 0, opt, w)
}

func fig9(opt Options, w io.Writer) Table {
	return threeWayFigure("fig9",
		"Three-way comparison, communication-dominated workload",
		"CA-GVT 2% slower than Barrier, 13% faster than Mattern at 8 nodes (switches to synchronous mode).",
		"comm", 0, 0, opt, w)
}

func fig10(opt Options, w io.Writer) Table {
	return threeWayFigure("fig10",
		"Mixed 10-15 model (10% comp, 15% comm, repeating)",
		"CA-GVT beats Mattern by 8.3% and Barrier by 6.4% at 8 nodes.",
		"mixed", 10, 15, opt, w)
}

func fig11(opt Options, w io.Writer) Table {
	return threeWayFigure("fig11",
		"Mixed 15-10 model (15% comp, 10% comm, repeating)",
		"CA-GVT beats Mattern by 6.9% and Barrier by 12.7% at 8 nodes.",
		"mixed", 15, 10, opt, w)
}

func fig12(opt Options, w io.Writer) Table {
	return threeWayFigure("fig12",
		"Mixed 5-5 model (5% comp, 5% comm, repeating)",
		"CA-GVT beats Mattern by 7.8% and Barrier by 8.3% at 8 nodes.",
		"mixed", 5, 5, opt, w)
}

// efficiencyTable reproduces the efficiency numbers quoted in §4 and §6.
func efficiencyTable(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "efficiency",
		Title:  "Simulation efficiency at the largest node count",
		Paper:  "Paper (8 nodes): Mattern comp 92.1%, comm 64.2%; Barrier comp ~91.5%, comm 94.2%; CA comm ~80% (threshold-driven).",
		XLabel: "scenario", XVals: []string{"comp", "comm"},
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
		{"CA-GVT", "ca-gvt"},
	} {
		cells := []Cell{
			runSpec{Spec: run.Spec{Nodes: n, GVT: c.gvt, Comm: "dedicated", Scenario: "comp", GVTInterval: 4}}.execute(opt, w),
			runSpec{Spec: run.Spec{Nodes: n, GVT: c.gvt, Comm: "dedicated", Scenario: "comm", GVTInterval: 4}}.execute(opt, w),
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

// disparityTable reproduces the §4 LVT disparity comparison.
func disparityTable(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "disparity",
		Title:  "Average per-round stddev of worker LVTs, communication-dominated",
		Paper:  "Paper (8 nodes, comm-dominated): Barrier 0.31 vs Mattern 0.43 — synchronization narrows the spread.",
		XLabel: "algorithm", XVals: []string{"value"},
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
	} {
		cell := runSpec{Spec: run.Spec{Nodes: n, GVT: c.gvt, Comm: "dedicated", Scenario: "comm", GVTInterval: 4}}.execute(opt, w)
		t.Series = append(t.Series, Series{Label: c.label, Cells: []Cell{cell}})
	}
	return t
}

// --- ablations ---

func ablInterval(opt Options, w io.Writer) Table {
	intervals := []int{2, 4, 8, 16, 32}
	t := Table{
		ID:     "interval",
		Title:  "GVT interval sensitivity (8-node comm-dominated unless overridden)",
		Paper:  "Paper picks 25/50 as 'best overall performance'; too-small intervals pay protocol overhead, too-large ones delay fossil collection and grow rollback depth.",
		XLabel: "interval",
	}
	for _, iv := range intervals {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", iv))
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
	} {
		var cells []Cell
		for _, iv := range intervals {
			o := opt
			o.GVTInterval = 0
			cells = append(cells, runSpec{Spec: run.Spec{
				Nodes: n, GVT: c.gvt, Comm: "dedicated",
				Scenario: "comm", GVTInterval: iv,
			}}.execute(o, w))
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

func ablThreshold(opt Options, w io.Writer) Table {
	thresholds := []float64{0.5, 0.7, 0.8, 0.9, 0.99}
	t := Table{
		ID:     "threshold",
		Title:  "CA-GVT efficiency threshold sweep (mixed 10-15 model)",
		Paper:  "The paper fixes 80%; the sweep shows the async/sync trade the threshold controls.",
		XLabel: "threshold",
	}
	for _, th := range thresholds {
		t.XVals = append(t.XVals, fmt.Sprintf("%.2f", th))
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	var cells []Cell
	for _, th := range thresholds {
		cells = append(cells, runSpec{Spec: run.Spec{
			Nodes: n, GVT: "ca-gvt", Comm: "dedicated",
			Scenario: "mixed", MixComp: 10, MixComm: 15,
			GVTInterval: 4, CAThreshold: th,
		}}.execute(opt, w))
	}
	t.Series = append(t.Series, Series{Label: "CA-GVT", Cells: cells})
	return t
}

func ablEPG(opt Options, w io.Writer) Table {
	epgs := []int{500, 1000, 2500, 5000, 10000, 20000}
	t := Table{
		ID:     "epg",
		Title:  "EPG sweep on the communication-heavy mix: Barrier/Mattern crossover",
		Paper:  "§4: higher EPG favors Mattern (asynchrony amortizes), lower EPG favors Barrier (rollback control); the crossover shifts with EPG.",
		XLabel: "EPG",
	}
	for _, e := range epgs {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", e))
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
	} {
		var cells []Cell
		for _, e := range epgs {
			cells = append(cells, runSpec{Spec: run.Spec{
				Nodes: n, GVT: c.gvt, Comm: "dedicated",
				Scenario: "comm", GVTInterval: 4,
			}, epgOverride: e}.execute(opt, w))
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

func ablShared(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "shared",
		Title:  "Comm-thread modes: dedicated vs combined vs every-thread-does-MPI",
		Paper:  "§1 motivates the dedicated thread with the lock contention of fully threaded MPI; 'shared' is that worst case.",
		XLabel: "nodes", XVals: nodeLabels(opt),
	}
	for _, comm := range []string{"dedicated", "combined", "shared"} {
		t.Series = append(t.Series, Series{
			Label: comm,
			Cells: sweep(opt, w, runSpec{Spec: run.Spec{GVT: "mattern", Comm: comm, Scenario: "comm", GVTInterval: 8}}),
		})
	}
	return t
}

func ablQueue(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "queue",
		Title:  "Pending-set implementation: binary heap vs calendar queue",
		Paper:  "Engine ablation (not in the paper): the committed stream is identical; virtual rates differ only through CPU cost modelling, so this mainly validates interchangeability.",
		XLabel: "nodes", XVals: nodeLabels(opt),
	}
	for _, kind := range []string{"heap", "calendar"} {
		t.Series = append(t.Series, Series{
			Label: kind,
			Cells: sweep(opt, w, runSpec{Spec: run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comp", GVTInterval: 4, Queue: kind}}),
		})
	}
	return t
}

func ablCheckpoint(opt Options, w io.Writer) Table {
	intervals := []int{1, 2, 4, 8, 16}
	t := Table{
		ID:     "checkpoint",
		Title:  "State-saving interval: snapshot every k-th event + coast-forward",
		Paper:  "Engine ablation (standard Time Warp trade-off, not a paper figure): sparse snapshots save copy cost but pay re-execution on rollback; the committed stream is identical either way.",
		XLabel: "interval",
	}
	for _, k := range intervals {
		t.XVals = append(t.XVals, fmt.Sprintf("%d", k))
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		wl    string
	}{
		{"comp-dominated", "comp"},
		{"comm-dominated", "comm"},
	} {
		var cells []Cell
		for _, k := range intervals {
			cells = append(cells, runSpec{Spec: run.Spec{
				Nodes: n, GVT: "mattern", Comm: "dedicated",
				Scenario: c.wl, GVTInterval: 4, CheckpointInterval: k,
			}}.execute(opt, w))
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

func ablSamadi(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "samadi",
		Title:  "Samadi's acknowledgement-based GVT against the paper's algorithms",
		Paper:  "Related work (§7): Samadi's algorithm 'requires that acknowledgement messages be sent, causing extra communication overhead' — here that overhead is measured on both scenarios.",
		XLabel: "scenario", XVals: []string{"comp", "comm"},
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label string
		gvt   string
	}{
		{"Mattern", "mattern"},
		{"Barrier", "barrier"},
		{"CA-GVT", "ca-gvt"},
		{"Samadi", "samadi"},
	} {
		cells := []Cell{
			runSpec{Spec: run.Spec{Nodes: n, GVT: c.gvt, Comm: "dedicated", Scenario: "comp", GVTInterval: 4}}.execute(opt, w),
			runSpec{Spec: run.Spec{Nodes: n, GVT: c.gvt, Comm: "dedicated", Scenario: "comm", GVTInterval: 4}}.execute(opt, w),
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

func ablRebalance(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "rebalance",
		Title:  "LP migration policies under a 4x straggler node, computation-dominated",
		Paper:  "Engine extension (not in the paper): telemetry-driven LP migration at GVT commit points. With one node's cores 4x slower, migrating hot LPs off it shrinks virtual time-to-completion; the committed stream is oracle-identical under every policy.",
		XLabel: "nodes", XVals: nodeLabels(opt),
	}
	o := opt
	o.FaultScenario = "straggler"
	for _, pol := range []string{"static", "greedy", "straggler"} {
		t.Series = append(t.Series, Series{
			Label: pol,
			Cells: sweep(o, w, runSpec{Spec: run.Spec{
				GVT: "ca-gvt", Comm: "dedicated",
				Scenario: "comp", GVTInterval: 4, Balance: pol,
			}}),
		})
	}
	return t
}

// crossover races the optimistic engine against both conservative
// protocols on the same PHOLD workload and committed event stream.
func crossover(opt Options, w io.Writer) Table {
	t := Table{
		ID:     "crossover",
		Title:  "Optimistic (Time Warp/Mattern) vs conservative (nullmsg, window), computation-dominated PHOLD",
		Paper:  "Engine extension (not in the paper): all three engines commit the identical oracle stream; the conservative engines trade rollback risk for blocking, so their relative rate tracks how much safe work the 0.1 lookahead exposes per round.",
		XLabel: "nodes", XVals: nodeLabels(opt),
	}
	for _, c := range []struct {
		label string
		spec  runSpec
	}{
		{"Time Warp/Mattern", runSpec{Spec: run.Spec{GVT: "mattern", Comm: "dedicated", Scenario: "comp", GVTInterval: 4}}},
		{"Conservative/nullmsg", runSpec{Spec: run.Spec{Engine: "conservative", Sync: "nullmsg", Scenario: "comp"}}},
		{"Conservative/window", runSpec{Spec: run.Spec{Engine: "conservative", Sync: "window", Scenario: "comp"}}},
	} {
		if !opt.syncEnabled(c.spec.Engine, c.spec.Sync) {
			continue
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: sweep(opt, w, c.spec)})
	}
	return t
}

// matrix sweeps the full cross-paradigm grid: every model under every
// engine configuration, at the largest node count.
func matrix(opt Options, w io.Writer) Table {
	models := []string{"phold", "pcs", "epidemic", "tandem"}
	t := Table{
		ID:     "matrix",
		Title:  "Cross-paradigm scenario matrix: {phold, pcs, epidemic, tandem} x {Time Warp x 4 GVT algorithms, conservative x 2 protocols}",
		Paper:  "Engine extension (not in the paper): one deterministic grid over both paradigms. Every cell of a column commits the same oracle event stream, so the rate differences are pure synchronization cost.",
		XLabel: "model", XVals: models,
	}
	n := opt.NodeCounts[len(opt.NodeCounts)-1]
	for _, c := range []struct {
		label  string
		engine string
		sync   string
		gvt    string
	}{
		{"TW/Barrier", "", "", "barrier"},
		{"TW/Mattern", "", "", "mattern"},
		{"TW/CA-GVT", "", "", "ca-gvt"},
		{"TW/Samadi", "", "", "samadi"},
		{"Cons/nullmsg", "conservative", "nullmsg", ""},
		{"Cons/window", "conservative", "window", ""},
	} {
		if !opt.syncEnabled(c.engine, c.sync) {
			continue
		}
		var cells []Cell
		for _, m := range models {
			cells = append(cells, runSpec{Spec: run.Spec{
				Nodes: n, Model: m, Engine: c.engine, Sync: c.sync,
				GVT: c.gvt, Comm: "dedicated", GVTInterval: 4,
			}}.execute(opt, w))
		}
		t.Series = append(t.Series, Series{Label: c.label, Cells: cells})
	}
	return t
}

// --- rendering ---

// Render writes the table as aligned text with rate and efficiency.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n", t.Paper)
	}
	width := 0
	for _, s := range t.Series {
		if len(s.Label) > width {
			width = len(s.Label)
		}
	}
	fmt.Fprintf(w, "%-*s", width+2, t.XLabel)
	for _, x := range t.XVals {
		fmt.Fprintf(w, "  %16s", x)
	}
	fmt.Fprintln(w)
	for _, s := range t.Series {
		fmt.Fprintf(w, "%-*s", width+2, s.Label)
		for _, c := range s.Cells {
			if c.Failed {
				fmt.Fprintf(w, "  %16s", "FAILED")
				continue
			}
			fmt.Fprintf(w, "  %9.4g/%5.1f%%", c.Rate, 100*c.Efficiency)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(cells: committed events per virtual second / efficiency)")
	fmt.Fprintln(w)
}

// CSV writes the table in machine-readable form.
func (t Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "experiment,series,%s,rate,efficiency,rollbacks,committed,wall_s,disparity,sync_rounds,gvt_rounds,barrier_wait_s\n", t.XLabel)
	for _, s := range t.Series {
		for i, c := range s.Cells {
			fmt.Fprintf(w, "%s,%s,%s,%.6g,%.6g,%d,%d,%.6g,%.6g,%d,%d,%.6g\n",
				t.ID, s.Label, t.XVals[i], c.Rate, c.Efficiency, c.Rollbacks,
				c.Committed, c.WallTime, c.Disparity, c.SyncRounds, c.GVTRounds, c.BarrierWait)
		}
	}
}

// Speedup returns series a's rate over series b's at the last x value.
func (t Table) Speedup(a, b string) float64 {
	var ca, cb *Cell
	for i := range t.Series {
		s := &t.Series[i]
		last := &s.Cells[len(s.Cells)-1]
		switch s.Label {
		case a:
			ca = last
		case b:
			cb = last
		}
	}
	if ca == nil || cb == nil || cb.Rate == 0 {
		return 0
	}
	return ca.Rate / cb.Rate
}

// Summary returns a one-line comparison of all series at the last x.
func (t Table) Summary() string {
	type pair struct {
		label string
		rate  float64
	}
	var ps []pair
	for _, s := range t.Series {
		ps = append(ps, pair{s.Label, s.Cells[len(s.Cells)-1].Rate})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].rate > ps[j].rate })
	var parts []string
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("%s %.4g", p.label, p.rate))
	}
	return strings.Join(parts, " > ")
}
