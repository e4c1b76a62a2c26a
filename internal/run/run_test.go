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

// TestNewPlumbsFaultsAndAttach: the fault scenario reaches the engine,
// the attached observers are driven, a Model override replaces the
// spec's model, and an invalid spec is an error rather than a panic.
func TestNewPlumbsFaultsAndAttach(t *testing.T) {
	spec := Spec{Scenario: "mixed", Faults: "drop",
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
// of host cost alone may move. Skipped is another: the steps, counted in
// Dispatches as if they had run, that a parked thread never took: every
// idle thread parks, a Time Warp worker for as many passes as its GVT
// interval credit leaves quiet. Chained is the third: the dispatches that
// filed a thread's next charge of a run of them (sim.Proc.AdvanceEach) in
// its stead. The tw-comm shape with checkpoint interval 4 pins virtual
// time for rollbacks that coast forward, replaying the model's Spins.
// Rechecks are what parking's bookkeeping costs, host-only too: the times a
// change (pe.Node.Touch) asked a parked thread whether it still has nothing
// to do. The paper-width row (8 nodes x 60 workers) has hundreds of idle
// threads parked at once, so a cost per parked thread shows there.
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
	coasting := twComm
	coasting.CheckpointInterval = 4
	wide := Spec{Nodes: 8, WorkersPerNode: 60, LPsPerWorker: 4, Seed: 1, GVT: "mattern", EndTime: 2}
	for _, c := range []struct {
		name                            string
		spec                            Spec
		dispatches, switches, committed uint64
		wall                            sim.Time
		skipped, chained, rechecks      uint64
	}{
		{"tw-comp", twComp, 621_966, 101_270, 23_393, 20_142_850, 422_267, 66_551, 1_156},
		{"tw-comm", twComm, 761_572, 309_829, 17_576, 33_915_896, 143_781, 265_053, 319},
		{"cons-nullmsg", consNull, 650_199, 19_397, 1_849, 6_520_369, 612_134, 11_483, 9_890},
		{"samadi/dedicated", samadi, 364_319, 49_009, 14_060, 15_419_086, 268_151, 38_254, 140},
		{"mattern/combined", combined, 382_917, 123_277, 14_060, 14_074_260, 142_718, 40_255, 177},
		{"mattern/shared", shared, 180_492, 98_779, 14_060, 14_472_790, 9_464, 55_988, 8},
		{"ca-gvt/greedy+straggler", migrating, 2_259_148, 576_513, 14_060, 45_122_604, 1_107_384, 53_613, 923},
		{"samadi/combined", samadiCombined, 198_045, 46_070, 14_060, 16_320_416, 110_048, 37_129, 53},
		{"samadi/shared", samadiShared, 290_121, 139_706, 14_060, 23_690_548, 4_935, 74_020, 0},
		{"samadi/greedy+straggler", samadiMigrating, 384_735, 50_367, 14_060, 48_742_778, 286_201, 39_419, 139},
		{"barrier/combined", barrierCombined, 149_236, 45_750, 14_060, 20_321_782, 66_252, 36_053, 43},
		{"tw-comm/checkpoint=4", coasting, 916_912, 369_818, 17_576, 52_926_214, 168_654, 309_939, 289},
		{"paper-width/mattern", wide, 8_462_125, 21_050, 3_272, 2_338_900, 8_422_342, 10_097, 86_520},
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
		if k.ProcSwitches+k.Callbacks+k.Steps+k.Chained != k.Dispatches || k.Callbacks == 0 || k.Steps == 0 {
			t.Errorf("%s: %d process switches + %d callbacks + %d steps + %d chained do not account for %d dispatches",
				c.name, k.ProcSwitches, k.Callbacks, k.Steps, k.Chained, k.Dispatches)
		}
		if k.Skipped != c.skipped || k.Chained != c.chained {
			t.Errorf("%s: %d of %d steps skipped, %d dispatches chained; pinned %d, %d", c.name, k.Skipped, k.Steps, k.Chained, c.skipped, c.chained)
		}
		if k.Rechecks != c.rechecks {
			t.Errorf("%s: %d parked threads rechecked; pinned %d", c.name, k.Rechecks, c.rechecks)
		}
	}
}
