package run

import (
	"io"
	"testing"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/sim"
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
		Model: func(lp event.LPID, total int) pe.Model {
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

// TestKernelDispatchesPinned pins what the sim kernel dispatches per
// committed event on the three engine shapes of the host benchmark — Time
// Warp's forward path (tw-comp), its rollback path under CA-GVT's
// synchronous rounds (tw-comm), and the null-message engine, whose idle
// polls make it the most dispatch-hungry path in the tree (cons-nullmsg) —
// and on the four configurations no virtual-time golden covers: Samadi's
// acknowledgements, a worker carrying the comm role (combined, shared),
// and a run that migrates LPs. Samadi is also pinned in each of those, and
// Barrier with a worker carrying the comm role, since both share the one
// synchronous round. The counts are a function of the spec
// alone, so any change to how often the engines enter the kernel shows
// here as an exact diff. Dispatches are kernel events and, with the
// commit count and the virtual wall clock, say virtual time is where it
// was; switches are the dispatches that cost a coroutine switch, which
// idle passes taken as Poll steps do not (pe.Worker.Idle for workers,
// pe.Node.CommLoop for the MPI threads), and are the one column a change
// of host cost alone may move.
func TestKernelDispatchesPinned(t *testing.T) {
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComp, twComm, consNull := shape, shape, shape
	twComp.GVT, twComp.EndTime = "mattern", 100
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 150
	consNull.Sync, consNull.EndTime = "nullmsg", 8
	shape.EndTime = 60
	samadi, combined, shared, migrating := shape, shape, shape, shape
	samadi.GVT = "samadi"
	combined.GVT, combined.Comm = "mattern", "combined"
	shared.GVT, shared.Comm = "mattern", "shared"
	migrating.GVT, migrating.Balance, migrating.Faults = "ca-gvt", "greedy", "straggler"
	samadiCombined, samadiShared, samadiMigrating, barrierCombined := combined, shared, migrating, combined
	samadiCombined.GVT, samadiShared.GVT, samadiMigrating.GVT, barrierCombined.GVT = "samadi", "samadi", "samadi", "barrier"
	for _, c := range []struct {
		name                            string
		spec                            Spec
		dispatches, switches, committed uint64
		wall                            sim.Time
	}{
		{"tw-comp", twComp, 622_992, 167_801, 23_393, 20_149_260},
		{"tw-comm", twComm, 719_138, 568_093, 17_576, 33_302_316},
		{"cons-nullmsg", consNull, 650_200, 30_881, 1_849, 6_520_369},
		{"samadi/dedicated", samadi, 364_336, 87_264, 14_060, 15_419_436},
		{"mattern/combined", combined, 382_925, 163_536, 14_060, 14_074_380},
		{"mattern/shared", shared, 168_876, 146_221, 14_060, 14_082_480},
		{"ca-gvt/greedy+straggler", migrating, 2_255_128, 629_471, 14_060, 45_109_304},
		{"samadi/combined", samadiCombined, 198_044, 83_201, 14_060, 16_320_086},
		{"samadi/shared", samadiShared, 290_124, 213_731, 14_060, 23_695_278},
		{"samadi/greedy+straggler", samadiMigrating, 384_748, 89_778, 14_060, 48_742_798},
		{"barrier/combined", barrierCombined, 149_234, 81_803, 14_060, 20_321_782},
	} {
		eng, err := New(c.spec, Attach{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r, err := eng.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		k := r.Kernel
		if k.Dispatches != c.dispatches || k.ProcSwitches != c.switches || uint64(r.Workers.Committed) != c.committed || r.WallTime != c.wall {
			per := func(n uint64) float64 { return float64(n) / float64(r.Workers.Committed) }
			t.Errorf("%s: %d dispatches, %d process switches for %d commits (%.1f, %.1f per commit) in %d ns, pinned %d, %d for %d in %d",
				c.name, k.Dispatches, k.ProcSwitches, r.Workers.Committed, per(k.Dispatches), per(k.ProcSwitches), int64(r.WallTime),
				c.dispatches, c.switches, c.committed, int64(c.wall))
		}
		if k.ProcSwitches+k.Callbacks+k.Steps != k.Dispatches || k.Callbacks == 0 || k.Steps == 0 {
			t.Errorf("%s: %d process switches + %d callbacks + %d steps do not account for %d dispatches",
				c.name, k.ProcSwitches, k.Callbacks, k.Steps, k.Dispatches)
		}
	}
}
