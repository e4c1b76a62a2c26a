// Command benchdiff compares two cmd/bench baseline documents and exits
// nonzero on any difference, so CI can gate merges on measured behaviour
// instead of asserted behaviour.
//
//	benchdiff BENCH_baseline.json /tmp/fresh.json
//
// Every metric in a cagvt.bench-baseline/1 document is virtual-time
// derived and deterministic, so ANY difference (including the commit
// checksum, missing cells, or extra cells) is a failure. Host cost
// (wall clock, allocations) is compared by `benchmark/run.sh -compare`.
//
// Exit status: 0 identical, 1 difference detected, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// baselineSchema is the one document layout this tool understands (kept
// in sync with cmd/bench).
const baselineSchema = "cagvt.bench-baseline/1"

// cell mirrors cmd/bench's baseline cell.
type cell struct {
	Name     string  `json:"name"`
	Nodes    int     `json:"nodes"`
	Engine   string  `json:"engine,omitempty"`
	Sync     string  `json:"sync,omitempty"`
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

type document struct {
	Schema string `json:"schema"`
	Cells  []cell `json:"cells"`
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) document {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal("%s: %v", path, err)
	}
	if doc.Schema != baselineSchema {
		fatal("%s: unknown schema %q (want %s)", path, doc.Schema, baselineSchema)
	}
	return doc
}

// diff accumulates regressions and prints each as it is found.
type diff struct{ failures int }

func (d *diff) failf(format string, args ...any) {
	d.failures++
	fmt.Printf("FAIL: "+format+"\n", args...)
}

// compareBaseline: deterministic documents must match exactly.
func compareBaseline(d *diff, base, cand document) {
	baseByName := map[string]cell{}
	for _, c := range base.Cells {
		baseByName[c.Name] = c
	}
	candByName := map[string]cell{}
	for _, c := range cand.Cells {
		candByName[c.Name] = c
		if _, ok := baseByName[c.Name]; !ok {
			d.failf("%s: cell present only in candidate", c.Name)
		}
	}
	for _, b := range base.Cells {
		c, ok := candByName[b.Name]
		if !ok {
			d.failf("%s: cell missing from candidate", b.Name)
			continue
		}
		if b != c {
			d.failf("%s: virtual metrics diverged:\n  base: %+v\n  cand: %+v", b.Name, b, c)
		}
	}
	if len(base.Cells) != len(cand.Cells) {
		d.failf("cell count changed: base %d, candidate %d", len(base.Cells), len(cand.Cells))
	}
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff BASE.json CANDIDATE.json\n")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	base, cand := load(flag.Arg(0)), load(flag.Arg(1))

	d := &diff{}
	compareBaseline(d, base, cand)
	if d.failures > 0 {
		fmt.Printf("benchdiff: %d regression(s)\n", d.failures)
		os.Exit(1)
	}
	fmt.Printf("OK: %d virtual-time cells identical\n", len(base.Cells))
}
