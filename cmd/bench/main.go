// Command bench runs a fixed set of baseline simulation cells and emits
// BENCH_baseline.json: every metric is derived from *virtual* time (the
// simulator's deterministic clock), so the file is bit-stable across
// machines and reruns. The checked-in copy is diffed EXACTLY against a
// fresh run — by TestBaselineCurrent in tier-1 and by `make benchdiff`
// (`go run ./cmd/bench -out - | diff -u BENCH_baseline.json -`) in CI —
// the same way a golden test spots functional regressions.
//
//	go run ./cmd/bench          # writes BENCH_baseline.json
//	go run ./cmd/bench -out -   # JSON to stdout
//	make bench                  # telemetry-overhead gate + baseline
//	make benchdiff              # fresh run vs the checked-in copy
//
// Host cost (wall clock, allocations) is measured by benchmark/, with
// repetitions and an oracle check; the real-time figure benchmarks stay
// in bench_test.go (`go test -bench`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/trace"
)

// Schema identifies the baseline document layout.
const Schema = "cagvt.bench-baseline/1"

// cell is one baseline configuration and its measured results.
type cell struct {
	Name     string  `json:"name"`
	Nodes    int     `json:"nodes"`
	Engine   string  `json:"engine,omitempty"` // "" (Time Warp) | "conservative"
	Sync     string  `json:"sync,omitempty"`   // conservative protocol
	GVT      string  `json:"gvt,omitempty"`
	Comm     string  `json:"comm,omitempty"`
	Workload string  `json:"workload"`
	Queue    string  `json:"queue,omitempty"`
	Balance  string  `json:"balance,omitempty"`
	Faults   string  `json:"faults,omitempty"`
	EndTime  float64 `json:"end_time"`
	Seed     uint64  `json:"seed"`

	Committed      int64   `json:"committed"`
	Processed      int64   `json:"processed"`
	WallNanos      int64   `json:"wall_ns"`
	Rate           float64 `json:"rate"`
	Efficiency     float64 `json:"efficiency"`
	GVTRounds      int64   `json:"gvt_rounds"`
	MPIMessages    int64   `json:"mpi_messages"`
	NullMessages   int64   `json:"null_messages,omitempty"`
	Migrations     int64   `json:"migrations,omitempty"`
	CommitChecksum string  `json:"commit_checksum"`
}

// document is the whole baseline file.
type document struct {
	Schema string `json:"schema"`
	Cells  []cell `json:"cells"`
}

// spec declares one cell: the run descriptor as the baseline prints it
// (fields left empty stay out of the document), completed by measure
// with the topology, GVT interval and seed every cell shares.
type spec struct {
	name string
	run.Spec
	metrics bool // attach sampler + trace (telemetry-overhead cell)
}

const benchSeed = 1

func specs() []spec {
	return []spec{
		{name: "mattern/comp", Spec: run.Spec{Nodes: 4, GVT: "mattern", Comm: "dedicated", Scenario: "comp", EndTime: 15}},
		{name: "barrier/comp", Spec: run.Spec{Nodes: 4, GVT: "barrier", Comm: "dedicated", Scenario: "comp", EndTime: 15}},
		{name: "ca/comp", Spec: run.Spec{Nodes: 4, GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", EndTime: 15}},
		{name: "mattern/comm", Spec: run.Spec{Nodes: 4, GVT: "mattern", Comm: "dedicated", Scenario: "comm", EndTime: 15}},
		{name: "ca/comm", Spec: run.Spec{Nodes: 4, GVT: "ca-gvt", Comm: "dedicated", Scenario: "comm", EndTime: 15}},
		{name: "samadi/comm", Spec: run.Spec{Nodes: 2, GVT: "samadi", Comm: "dedicated", Scenario: "comm", EndTime: 15}},
		{name: "queue-heap/comp", Spec: run.Spec{Nodes: 2, GVT: "mattern", Comm: "dedicated", Scenario: "comp", Queue: "heap", EndTime: 15}},
		{name: "telemetry/comp", Spec: run.Spec{Nodes: 2, GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", EndTime: 15}, metrics: true},
		{name: "straggler-static/comp", Spec: run.Spec{Nodes: 2, GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", Balance: "static", Faults: "straggler", EndTime: 60}},
		{name: "straggler-greedy/comp", Spec: run.Spec{Nodes: 2, GVT: "ca-gvt", Comm: "dedicated", Scenario: "comp", Balance: "greedy", Faults: "straggler", EndTime: 60}},
		{name: "conservative-nullmsg/comp", Spec: run.Spec{Nodes: 4, Engine: "conservative", Sync: "nullmsg", Scenario: "comp", EndTime: 15}},
		{name: "conservative-window/comp", Spec: run.Spec{Nodes: 4, Engine: "conservative", Sync: "window", Scenario: "comp", EndTime: 15}},
		{name: "conservative-nullmsg/comm", Spec: run.Spec{Nodes: 4, Engine: "conservative", Sync: "nullmsg", Scenario: "comm", EndTime: 15}},
	}
}

// measure runs one cell on the engine build makes of it (run.New).
// Conservative cells pin both protocols' committed stream (checksum) and
// their sync traffic (null messages, sync rounds via gvt_rounds) into the
// exact-diffed baseline.
func measure(s spec, build func(run.Spec, run.Attach) (run.Engine, error)) (cell, error) {
	full := s.Spec
	full.WorkersPerNode, full.LPsPerWorker = 4, 16
	full.GVTInterval = 4
	full.Seed = benchSeed
	var at run.Attach
	if s.metrics {
		at.Metrics = metrics.NewRecorder()
		at.Trace = trace.NewWriter(io.Discard)
	}
	eng, err := build(full, at)
	if err != nil {
		return cell{}, err
	}
	r, err := eng.Run()
	if err != nil {
		return cell{}, err
	}
	return cell{
		Name: s.name, Nodes: s.Nodes, Engine: s.Engine, Sync: s.Sync, GVT: s.GVT, Comm: s.Comm,
		Workload: s.Scenario, Queue: s.Queue, Balance: s.Balance, Faults: s.Faults,
		EndTime: s.EndTime, Seed: benchSeed,
		Committed: r.Workers.Committed, Processed: r.Workers.Processed,
		WallNanos: int64(r.WallTime), Rate: r.EventRate(), Efficiency: r.Efficiency(),
		GVTRounds: r.GVTRounds, MPIMessages: r.MPIMessages,
		NullMessages: r.NullMessages, Migrations: r.Migrations,
		CommitChecksum: metrics.Checksum(r.CommitChecksum),
	}, nil
}

// baseline measures every cell, logging one progress line per cell.
func baseline(progress io.Writer, build func(run.Spec, run.Attach) (run.Engine, error)) (document, error) {
	doc := document{Schema: Schema}
	for _, s := range specs() {
		c, err := measure(s, build)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(progress, "bench: %-24s rate=%.4g ev/s eff=%.1f%% wall=%dns\n",
			c.Name, c.Rate, 100*c.Efficiency, c.WallNanos)
		doc.Cells = append(doc.Cells, c)
	}
	return doc, nil
}

// encode writes doc in the checked-in file's layout: indented, one field
// per line, so a plain `diff -u` names the cell and metric that moved.
func encode(w io.Writer, doc document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// write encodes doc to path ("-" for stdout).
func write(path string, doc document) error {
	if path == "-" {
		return encode(os.Stdout, doc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	out := flag.String("out", "BENCH_baseline.json", "virtual-time baseline output file (- for stdout)")
	flag.Parse()

	doc, err := baseline(os.Stderr, run.New)
	if err == nil {
		err = write(*out, doc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "bench: wrote %d cells to %s\n", len(doc.Cells), *out)
	}
}
