// Command experiments regenerates the paper's figures and tables on the
// simulated cluster.
//
// Usage:
//
//	experiments -fig all                 # every figure + ablations
//	experiments -fig fig6,fig9           # specific experiments
//	experiments -workers 60 -lps 128     # paper-scale topology
//	experiments -csv out.csv             # machine-readable output
//
// Cells report committed events per virtual second and efficiency, the
// metrics of the paper's evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/balance"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	// The flags write straight into the harness defaults, so the two
	// cannot drift apart.
	opt := harness.DefaultOptions()
	// [1 2 4 8] -> "1,2,4,8", the form -nodes parses.
	nodeDefault := strings.Trim(strings.ReplaceAll(fmt.Sprint(opt.NodeCounts), " ", ","), "[]")
	flag.IntVar(&opt.WorkersPerNode, "workers", opt.WorkersPerNode, "worker threads per node (paper: 60)")
	flag.IntVar(&opt.LPsPerWorker, "lps", opt.LPsPerWorker, "LPs per worker (paper: 128)")
	flag.Float64Var(&opt.EndTime, "end", opt.EndTime, "simulation end time (virtual time units)")
	flag.IntVar(&opt.GVTInterval, "interval", opt.GVTInterval, "GVT interval override in 16-event batches (0: per-figure default, 8 for figs 3-4, 4 otherwise)")
	flag.Uint64Var(&opt.Seed, "seed", opt.Seed, "master RNG seed")
	flag.Float64Var(&opt.CAThreshold, "threshold", opt.CAThreshold, "CA-GVT efficiency threshold")
	flag.StringVar(&opt.Sync, "sync", "", "restrict crossover/matrix cells to one engine: timewarp | nullmsg | window (empty: all)")
	flag.StringVar(&opt.FaultScenario, "faults", "", "run every cell under a fault scenario: "+strings.Join(fabric.ScenarioNames(), " | ")+" (empty: fault-free)")
	flag.StringVar(&opt.BalancePolicy, "balance", "", "run every cell under an LP load-balancing policy: "+strings.Join(balance.Names(), " | ")+" (empty: static placement)")
	flag.IntVar(&opt.Jobs, "jobs", runtime.GOMAXPROCS(0), "experiment cells to run concurrently on host cores (1: sequential; output is byte-identical for every value)")
	flag.BoolVar(&opt.Verbose, "v", false, "print each run as it completes")
	var (
		fig      = flag.String("fig", "all", "experiment IDs, comma separated, or 'all' ("+strings.Join(harness.IDs(), ", ")+")")
		nodes    = flag.String("nodes", nodeDefault, "node counts for weak-scaling sweeps")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		mdPath   = flag.String("md", "", "also write results as markdown tables to this file")
		jsonPath = flag.String("report", "", "also write tables + one telemetry run report per execution as JSON to this file")
		capN     = flag.Int("samplecap", 0, "max telemetry samples per series with -report (0: default)")
	)
	flag.Parse()

	if opt.Jobs < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -jobs must be >= 1, got %d\n", opt.Jobs)
		os.Exit(2)
	}
	switch opt.Sync {
	case "", "timewarp", "nullmsg", "window":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -sync %q (want timewarp | nullmsg | window)\n", opt.Sync)
		os.Exit(2)
	}
	if opt.FaultScenario != "" {
		if _, err := fabric.Scenario(opt.FaultScenario, 1); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if _, err := balance.New(opt.BalancePolicy, balance.Options{}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		opt.Reports = metrics.NewReportSet()
		opt.SampleCap = *capN
	}
	opt.NodeCounts = nil
	for _, part := range strings.Split(*nodes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: bad -nodes value %q\n", part)
			os.Exit(2)
		}
		opt.NodeCounts = append(opt.NodeCounts, n)
	}

	var todo []harness.Experiment
	if *fig == "all" {
		todo = harness.Registry()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			e, ok := harness.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have: %s)\n",
					id, strings.Join(harness.IDs(), ", "))
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	var csv, md *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csv = f
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		md = f
	}

	fmt.Printf("topology: %d workers/node, %d LPs/worker; end=%v seed=%d nodes=%v\n\n",
		opt.WorkersPerNode, opt.LPsPerWorker, opt.EndTime, opt.Seed, opt.NodeCounts)
	var tables []harness.Table
	for _, e := range todo {
		table := e.Execute(opt, os.Stdout)
		table.Render(os.Stdout)
		if csv != nil {
			table.CSV(csv)
		}
		if md != nil {
			table.Markdown(md)
		}
		tables = append(tables, table)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := harness.WriteJSON(f, tables, opt.Reports); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d tables, %d run reports)\n", *jsonPath, len(tables), opt.Reports.Len())
	}
}
