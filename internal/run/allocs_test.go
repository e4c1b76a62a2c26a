package run

import (
	"runtime"
	"testing"
)

// allocsOf builds and runs spec and returns the heap allocations New and
// Run made between them, with the events the run committed. The count is
// the least of three runs: the runtime adds a few allocations of its own
// now and then (a goroutine when none is cached, a map overflow bucket),
// never fewer.
func allocsOf(t *testing.T, spec Spec) (mallocs, committed uint64) {
	t.Helper()
	for i := 0; i < 3; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := New(spec, Attach{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if m := after.Mallocs - before.Mallocs; i == 0 || m < mallocs {
			mallocs = m
		}
		committed = uint64(r.Workers.Committed)
	}
	return mallocs, committed
}

// TestEngineAllocsPinned is the allocation ratchet of the engine side: on
// the three engine shapes of the host benchmark (as in
// TestKernelDispatchesPinned), the heap allocations of New plus Run per
// committed event stay under a bound written here. What remains is set-up
// — model build, seeding, thread spawn — and, on the Time Warp shapes, the
// model's boxed snapshots (DESIGN.md "Allocations per commit"); the
// per-event engine path allocates nothing once its free lists and slabs
// have grown, which the marginal row checks on cons-nullmsg, whose model
// boxes nothing: twice the end time may cost next to nothing per extra
// commit. A bound may only go down.
func TestEngineAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComp, twComm, consNull := shape, shape, shape
	twComp.GVT, twComp.EndTime = "mattern", 100
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 150
	consNull.Sync, consNull.EndTime = "nullmsg", 8
	var nullMallocs, nullCommitted uint64
	for _, c := range []struct {
		name  string
		spec  Spec
		bound float64 // allocations per committed event
	}{
		{"tw-comp", twComp, 0.62},
		{"tw-comm", twComm, 0.49},
		{"cons-nullmsg", consNull, 0.93},
	} {
		mallocs, committed := allocsOf(t, c.spec)
		per := float64(mallocs) / float64(committed)
		t.Logf("%s: %d allocations for %d commits = %.3f per commit", c.name, mallocs, committed, per)
		if per > c.bound {
			t.Errorf("%s: %.3f allocations per commit, bound %v", c.name, per, c.bound)
		}
		if c.name == "cons-nullmsg" {
			nullMallocs, nullCommitted = mallocs, committed
		}
	}

	const marginalBound = 0.01
	long := consNull
	long.EndTime *= 2
	mallocs, committed := allocsOf(t, long)
	per := (float64(mallocs) - float64(nullMallocs)) / float64(committed-nullCommitted)
	t.Logf("cons-nullmsg: end %v → %v added %d allocations for %d commits = %.4f per extra commit",
		consNull.EndTime, long.EndTime, int64(mallocs)-int64(nullMallocs), committed-nullCommitted, per)
	if per > marginalBound {
		t.Errorf("cons-nullmsg: %.4f allocations per extra commit, bound %v", per, marginalBound)
	}
}
