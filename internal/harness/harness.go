// Package harness declares and runs the paper's experiments: one
// experiment per figure of the evaluation (Figures 3–12), the efficiency
// and LVT-disparity numbers quoted in the text, and the repo's extra
// ablations. Each experiment produces a Table whose series correspond to
// the figure's curves (committed event rate vs node count, typically).
//
// An experiment is data: its series and x axis (experiments.go) lay out,
// for a given Options, as a plan — one fully resolved run.Spec per cell.
// Experiment.Execute (exec.go) is the only code that runs a plan.
package harness

import (
	"fmt"
	"io"

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
	// transport and GVT liveness watchdog active, unless the experiment
	// pins its own scenario.
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
	// to GOMAXPROCS. Output is byte-identical for every value (see
	// Execute).
	Jobs int
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

// Experiment is one declared experiment: the table's heading and a grid
// of engine runs, series × x axis. Declaring one runs nothing; Execute
// runs the cells its plan lays out.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports (the shape to compare against)

	// x is the table's x axis. The zero axis is the weak-scaling sweep
	// over Options.NodeCounts; every other axis runs at the largest node
	// count.
	x      axis
	series []series
}

// series is one curve as declared: its label and the part of the run
// descriptor the experiment pins. Options and the x axis fill in the rest.
type series struct {
	label string
	spec  run.Spec
}

// axis is an experiment's x dimension: the printed values and how the
// i-th one pins a cell.
type axis struct {
	label string
	vals  []string
	pin   func(c *cell, i int)
}

// axisOf builds an axis over typed values, printed with format.
func axisOf[T any](label, format string, vals []T, pin func(*cell, T)) axis {
	a := axis{label: label, pin: func(c *cell, i int) { pin(c, vals[i]) }}
	for _, v := range vals {
		a.vals = append(a.vals, fmt.Sprintf(format, v))
	}
	return a
}

// cell is one engine execution: a fully resolved run descriptor plus the
// one model parameter the descriptor has no field for.
type cell struct {
	spec run.Spec
	epg  int // >0: override the PHOLD phase EPG (EPG sweep)
}

// plan is an experiment laid out for one Options value: the x axis and,
// per series that passes the Sync filter, every cell to run.
type plan struct {
	xLabel string
	xVals  []string
	series []planSeries
}

type planSeries struct {
	label string
	cells []cell
}

// plan lays the experiment out. It is pure in opt: the same Options give
// the same cells in the same order, which is the order Execute delivers
// output in.
func (e Experiment) plan(opt Options) plan {
	x := e.x
	if x.label == "" {
		x = axisOf("nodes", "%d", opt.NodeCounts, func(c *cell, n int) { c.spec.Nodes = n })
	}
	crossParadigm := false
	for _, s := range e.series {
		crossParadigm = crossParadigm || s.spec.Engine == "conservative"
	}
	p := plan{xLabel: x.label, xVals: x.vals}
	for _, s := range e.series {
		if crossParadigm && !opt.syncEnabled(s.spec.Engine, s.spec.Sync) {
			continue
		}
		base := cell{spec: opt.resolve(s.spec)}
		ps := planSeries{label: s.label}
		for i := range x.vals {
			c := base
			x.pin(&c, i)
			ps.cells = append(ps.cells, c)
		}
		p.series = append(p.series, ps)
	}
	return p
}

// resolve completes a series' spec with the sweep-wide Options. What the
// experiment pins wins, except the GVT interval, where the series value
// is only the default the -interval override replaces; the x axis pins
// its cells after this, so an axis over the interval still has the last
// word.
func (o Options) resolve(sp run.Spec) run.Spec {
	sp.Nodes = o.NodeCounts[len(o.NodeCounts)-1] // the node sweep re-pins it per cell
	sp.WorkersPerNode, sp.LPsPerWorker = o.WorkersPerNode, o.LPsPerWorker
	sp.EndTime, sp.Seed = o.EndTime, o.Seed
	if o.GVTInterval > 0 {
		sp.GVTInterval = o.GVTInterval
	}
	if sp.CAThreshold == 0 {
		sp.CAThreshold = o.CAThreshold
	}
	if sp.Balance == "" {
		sp.Balance = o.BalancePolicy
	}
	if sp.Faults == "" {
		sp.Faults = o.FaultScenario
	}
	return sp
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

// execute runs the cell and returns its measurement, writing its verbose
// or FAILED line to w and its telemetry report to opt.Reports. A failed
// run (engine error, invariant panic, invalid fault scenario) yields a
// Failed cell instead of tearing down the sweep — the remaining cells
// still get measured.
func (c cell) execute(opt Options, w io.Writer) Cell {
	res, err := c.run(opt, w)
	if err != nil {
		line, _ := labels(c.spec)
		fmt.Fprintf(w, "  [%s] FAILED: %v\n", line, err)
		return Cell{Failed: true, Error: err.Error()}
	}
	return res
}

// run builds the cell's engine through run.New, which refuses what the
// chosen engine cannot honour (a fault scenario or balancing policy on a
// conservative cell) instead of silently running without it.
func (c cell) run(opt Options, w io.Writer) (res Cell, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: run %+v panicked: %v", c, r)
		}
	}()
	sp, err := c.spec.Canonical()
	if err != nil {
		return Cell{}, err
	}
	var at run.Attach
	if c.epg > 0 && sp.Model == "phold" {
		p := sp.PholdParams()
		p.Base.EPG = c.epg
		if p.Mixed != nil {
			p.Mixed.Comm.EPG = c.epg
		}
		at.Model = phold.New(p)
	}
	if opt.Reports != nil {
		at.Metrics = &metrics.Recorder{MaxSamples: opt.SampleCap}
	}
	eng, err := run.New(sp, at)
	if err != nil {
		return Cell{}, err
	}
	r, err := eng.Run()
	if err != nil {
		return Cell{}, fmt.Errorf("harness: run %+v failed: %w", c, err)
	}
	line, reportLabel := labels(sp)
	if opt.Reports != nil {
		rep := eng.Report(r)
		rep.Config.Label = reportLabel
		opt.Reports.Add(rep)
	}
	if opt.Verbose {
		if sp.Engine == "conservative" {
			fmt.Fprintf(w, "  [%s] rate=%.4g nulls=%d\n", line, r.EventRate(), r.NullMessages)
		} else {
			fmt.Fprintf(w, "  [%s] rate=%.4g eff=%.1f%% rb=%d\n",
				line, r.EventRate(), 100*r.Efficiency(), r.Workers.Rollbacks)
		}
	}
	return cellOf(r), nil
}

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
