package run

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestNewMatchesOracle: for every model, New on a Time Warp spec and on
// each conservative twin returns an engine whose run commits exactly the
// sequential oracle's stream.
func TestNewMatchesOracle(t *testing.T) {
	for _, model := range []string{"phold", "pcs", "epidemic", "tandem"} {
		base := Spec{Model: model, Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5}
		ref, err := base.Oracle()
		if err != nil {
			t.Fatalf("%s: oracle: %v", model, err)
		}
		if ref.Processed == 0 {
			t.Fatalf("%s: oracle processed nothing", model)
		}
		for _, sync := range []string{"", "nullmsg", "window"} {
			s := base
			s.Sync = sync
			eng, err := New(s, Attach{})
			if err != nil {
				t.Fatalf("%s/%q: %v", model, sync, err)
			}
			r, err := eng.Run()
			if err != nil {
				t.Fatalf("%s/%q: %v", model, sync, err)
			}
			if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
				t.Errorf("%s/%q: committed %d events checksum %x, oracle %d / %x",
					model, sync, r.Workers.Committed, r.CommitChecksum, ref.Processed, ref.Checksum)
			}
		}
	}
}

// TestNewPlumbsFaultsAndAttach: the fault scenario and watchdog reach the
// engine, the attached observers are driven, a Model override replaces
// the spec's model, and an invalid spec is an error rather than a panic.
func TestNewPlumbsFaultsAndAttach(t *testing.T) {
	spec := Spec{Scenario: "mixed", Faults: "drop", WatchdogMicros: 100,
		Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	inner := canon.model()
	at := Attach{
		Trace:   trace.NewWriter(io.Discard),
		Metrics: metrics.NewRecorder(),
		Model: func(lp event.LPID, total int) core.Model {
			built++
			return inner(lp, total)
		},
	}
	eng, err := New(spec, at)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if built != canon.Topology().TotalLPs() {
		t.Errorf("model override built %d LPs, want %d", built, canon.Topology().TotalLPs())
	}
	if r.FaultDrops == 0 {
		t.Error("drop scenario injected no drops: fault plan not installed")
	}
	rep := eng.Report(r)
	if rep.Config.Faults != "drop" || len(rep.Rounds) == 0 {
		t.Errorf("report: faults %q, %d round samples", rep.Config.Faults, len(rep.Rounds))
	}
	if at.Trace.Commits != r.Workers.Committed {
		t.Errorf("trace saw %d commits, run committed %d", at.Trace.Commits, r.Workers.Committed)
	}
	if _, err := New(Spec{Model: "warp10"}, Attach{}); err == nil {
		t.Error("invalid spec built an engine")
	}
}
