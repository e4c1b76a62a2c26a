package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// runBoth executes the experiment sequentially (Jobs=1) and in parallel
// (Jobs=4) with identical options and returns both (table, output) pairs.
func runBoth(t *testing.T, e Experiment, opt Options) (Table, Table, []byte, []byte) {
	t.Helper()
	seqOpt := opt
	seqOpt.Jobs = 1
	var seqBuf bytes.Buffer
	seqTable := e.Execute(seqOpt, &seqBuf)

	parOpt := opt
	parOpt.Jobs = 4
	var parBuf bytes.Buffer
	parTable := e.Execute(parOpt, &parBuf)
	return seqTable, parTable, seqBuf.Bytes(), parBuf.Bytes()
}

// TestExecuteByteIdentical is the tentpole guarantee: `-jobs N` output —
// verbose per-run lines, tables, CSV — is byte-identical to `-jobs 1`
// for experiments spanning sweeps, per-series policies and fault
// scenarios.
func TestExecuteByteIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "efficiency", "interval", "rebalance"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			opt := miniOptions()
			opt.Verbose = true
			seqTable, parTable, seqOut, parOut := runBoth(t, e, opt)
			if !bytes.Equal(seqOut, parOut) {
				t.Errorf("verbose output differs:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", seqOut, parOut)
			}
			if !reflect.DeepEqual(seqTable, parTable) {
				t.Errorf("tables differ:\njobs=1: %+v\njobs=4: %+v", seqTable, parTable)
			}
			var seqCSV, parCSV bytes.Buffer
			seqTable.CSV(&seqCSV)
			parTable.CSV(&parCSV)
			if !bytes.Equal(seqCSV.Bytes(), parCSV.Bytes()) {
				t.Errorf("CSV differs between jobs=1 and jobs=4")
			}
		})
	}
}

// TestExecuteReportOrder: telemetry reports collected by parallel cells
// must land in the report set in sequential execution order.
func TestExecuteReportOrder(t *testing.T) {
	e, _ := Find("fig5")
	opt := miniOptions()

	labels := func(jobs int) []string {
		o := opt
		o.Jobs = jobs
		o.Reports = metrics.NewReportSet()
		o.SampleCap = 4
		e.Execute(o, nil)
		var out []string
		for _, r := range o.Reports.Reports {
			out = append(out, r.Config.Label)
		}
		return out
	}
	seq, par := labels(1), labels(4)
	if len(seq) == 0 {
		t.Fatal("sequential run collected no reports")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("report order differs:\njobs=1: %v\njobs=4: %v", seq, par)
	}
}

// TestExecuteFailedCells: failed runs (here: an unknown fault scenario
// rejected inside every cell) must produce identical FAILED lines and
// identical failed cells in both modes.
func TestExecuteFailedCells(t *testing.T) {
	e, _ := Find("fig5")
	opt := miniOptions()
	opt.Verbose = true
	opt.FaultScenario = "no-such-scenario"
	seqTable, parTable, seqOut, parOut := runBoth(t, e, opt)
	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("FAILED output differs:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", seqOut, parOut)
	}
	if !reflect.DeepEqual(seqTable, parTable) {
		t.Errorf("failed tables differ")
	}
	found := false
	for _, s := range seqTable.Series {
		for _, c := range s.Cells {
			if c.Failed {
				found = true
			}
		}
	}
	if !found {
		t.Error("expected failed cells with a bogus fault scenario")
	}
}

// TestExecuteDefaultJobs: Jobs=0 resolves to GOMAXPROCS and still
// matches the sequential output (exercised with whatever parallelism the
// host has).
func TestExecuteDefaultJobs(t *testing.T) {
	e, _ := Find("disparity")
	opt := miniOptions()
	opt.Verbose = true

	run := func(jobs int) string {
		o := opt
		o.Jobs = jobs
		var buf bytes.Buffer
		tab := e.Execute(o, &buf)
		var csv bytes.Buffer
		tab.CSV(&csv)
		return buf.String() + "\n" + csv.String()
	}
	if got, want := run(0), run(1); got != want {
		t.Errorf("jobs=0 (GOMAXPROCS) output differs from jobs=1:\n%s\nvs\n%s", got, want)
	}
}

// TestExecuteManyJobsFewCells: more workers than cells must not
// deadlock or drop results.
func TestExecuteManyJobsFewCells(t *testing.T) {
	e, _ := Find("disparity") // 2 cells
	opt := miniOptions()
	opt.Jobs = 16
	tab := e.Execute(opt, nil)
	if len(tab.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(tab.Series))
	}
	for _, s := range tab.Series {
		for _, c := range s.Cells {
			if c.Failed || c.Committed == 0 {
				t.Errorf("series %s: bad cell %+v", s.Label, c)
			}
		}
	}
}

// TestExecuteVsRunParity: there is one run path, so one worker and
// several must agree byte for byte on output and table.
func TestExecuteVsRunParity(t *testing.T) {
	e, _ := Find("queue")
	opt := miniOptions()
	opt.Verbose = true

	opt.Jobs = 1
	var oneBuf bytes.Buffer
	oneTable := e.Execute(opt, &oneBuf)

	opt.Jobs = 3
	var parBuf bytes.Buffer
	parTable := e.Execute(opt, &parBuf)

	if oneBuf.String() != parBuf.String() {
		t.Errorf("Execute(jobs=3) output differs from jobs=1:\n%s\nvs\n%s", parBuf.String(), oneBuf.String())
	}
	if !reflect.DeepEqual(oneTable, parTable) {
		t.Errorf("Execute(jobs=3) table differs from jobs=1")
	}
}
