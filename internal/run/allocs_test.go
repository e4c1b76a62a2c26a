package run

import (
	"runtime"
	"testing"
)

// allocsOf builds and runs spec and returns the heap allocations New and
// Run made between them and their bytes, with the events the run
// committed. Each count is the least of three runs: the runtime adds a few
// allocations of its own now and then (a goroutine when none is cached, a
// map overflow bucket), never fewer. The runs are on one processor, as
// simd's mallocsOf counts, so that tests running alongside cannot move
// the kernel's coroutines between processors mid-run.
func allocsOf(t *testing.T, spec Spec) (mallocs, bytes, committed uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < bytes {
			bytes = b
		}
		committed = uint64(r.Workers.Committed)
	}
	return mallocs, bytes, committed
}

// TestEngineAllocsPinned is the allocation ratchet of the engine side: on
// the three engine shapes of the host benchmark (as in
// TestKernelDispatchesPinned) and the job service's cold-job spec, the
// heap allocations of New plus Run per committed event, and the bytes they
// take, stay under bounds written here. What remains is set-up — a few
// allocations per worker, none per LP (TestEngineBuildAllocsPinned) — the
// chunks a run's thread records are carved from (a warm process's spawn
// allocates nothing else: its coroutines wait on sim's idle list from the
// run before, and the least of three runs is a warm one) and the growth of
// slices past what the topology sizes them for. A warm process's run makes
// no slab array: its node pools, history entries, send records, null
// messages and seed events come from the arrays the run before handed
// back (event.Stash; DESIGN.md "Allocations per commit"), and the
// per-event engine path allocates nothing. The marginal
// rows check that: twice the end time may cost next to nothing per extra
// commit on cons-nullmsg, and little on tw-comp, where a phold snapshot
// that boxes a count past 255 is most of what is left. A bound may only go
// down.
func TestEngineAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComp, twComm, consNull := shape, shape, shape
	twComp.GVT, twComp.EndTime = "mattern", 100
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 150
	consNull.Sync, consNull.EndTime = "nullmsg", 8
	// The job service's tiny spec: about forty events.
	coldJob := Spec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: 1}
	base := map[string][2]uint64{} // mallocs, commits
	for _, c := range []struct {
		name       string
		spec       Spec
		bound      float64 // allocations per committed event
		bytesBound float64 // bytes allocated per committed event
	}{
		// Before a run's fixed cost was sized at build (names, idle passes
		// without closures, run-time slices) these were 0.058, 0.086, 0.440
		// and 4.55 allocations and 70.0, 54.7, 75.7 and 855 bytes. Before
		// Time Warp's workers were built in node-wide arrays, with one
		// idle-pass contract and no closures, tw-comp, tw-comm and the cold
		// job were at 0.038, 0.055 and 3.43 allocations (885, 965 and 137).
		// Before a Time Warp node reserved its event pool and carved its
		// workers' rollback buffers at build, the cold job took 116. Before
		// a thread's coroutine was made once per process (about 13
		// allocations a spawn), the four took 0.024, 0.039, 0.207 and 2.65.
		// Before the pending set was sized with the thread records, before
		// the spawns, cons-nullmsg and the cold job took 112 and 66. Before
		// a run's event, history and send-record arrays came from the runs
		// before it (event.Stash) and a pool's free list ran through its
		// events, the four took 0.012, 0.024, 0.054 and 1.575 allocations
		// and 68.4, 51.8, 67.1 and 800 bytes. Before node 0 kept the one
		// GVT token it refills each phase (three made a round), tw-comp and
		// tw-comm took 130 and 276 allocations (0.0056, 0.0157; 6.09 and
		// 8.37 bytes).
		{"tw-comp", twComp, 0.004, 6.05},
		{"tw-comm", twComm, 0.0125, 8.25},
		{"cons-nullmsg", consNull, 0.049, 51.2},
		{"cold-job", coldJob, 1.2, 352},
	} {
		mallocs, bytes, committed := allocsOf(t, c.spec)
		per, perBytes := float64(mallocs)/float64(committed), float64(bytes)/float64(committed)
		t.Logf("%s: %d allocations, %d bytes for %d commits = %.3f allocations, %.1f bytes per commit",
			c.name, mallocs, bytes, committed, per, perBytes)
		if per > c.bound {
			t.Errorf("%s: %.3f allocations per commit, bound %v", c.name, per, c.bound)
		}
		if perBytes > c.bytesBound {
			t.Errorf("%s: %.1f bytes per commit, bound %v", c.name, perBytes, c.bytesBound)
		}
		base[c.name] = [2]uint64{mallocs, committed}
	}

	for _, c := range []struct {
		name  string
		spec  Spec
		bound float64 // allocations per extra committed event
	}{
		{"tw-comp", twComp, 0.038},
		{"cons-nullmsg", consNull, 0.001},
	} {
		long := c.spec
		long.EndTime *= 2
		mallocs, _, committed := allocsOf(t, long)
		b := base[c.name]
		per := (float64(mallocs) - float64(b[0])) / float64(committed-b[1])
		t.Logf("%s: end %v → %v added %d allocations for %d commits = %.4f per extra commit",
			c.name, c.spec.EndTime, long.EndTime, int64(mallocs)-int64(b[0]), committed-b[1], per)
		if per > c.bound {
			t.Errorf("%s: %.4f allocations per extra commit, bound %v", c.name, per, c.bound)
		}
	}
}
