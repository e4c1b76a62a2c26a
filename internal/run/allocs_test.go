package run

import (
	"runtime"
	"strings"
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
// allocations per worker, none per LP, on an empty stash
// (TestEngineBuildAllocsPinned) — and the growth of slices past what the
// topology sizes them for. A warm process's run makes no array: its build
// arrays, node pools, history entries, send records, null messages, seed
// events, mailboxes, pending sets, MPI and wire arrays and the kernel's
// records come from the arrays the run before handed back, grown as far
// as it grew them (stash.Keep; DESIGN.md "Allocations per commit"), its
// coroutines wait on sim's idle list, the least of three runs is a warm
// one, and the per-event engine path allocates nothing. The marginal
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
		// before it and a pool's free list ran through its events, the
		// four took 0.012, 0.024, 0.054 and 1.575 allocations
		// and 68.4, 51.8, 67.1 and 800 bytes. Before node 0 kept the one
		// GVT token it refills each phase (three made a round), tw-comp and
		// tw-comm took 130 and 276 allocations (0.0056, 0.0157; 6.09 and
		// 8.37 bytes). Before a build's node, worker, LP, MPI, wire and
		// kernel arrays came from the run before (stash.Keep), with
		// mailboxes and pending sets at the size it grew them to, the four
		// took 88, 210, 90 and 48 allocations (0.0038, 0.0119, 0.0487 and
		// 1.2) and 6.00, 8.19, 51.2 and 352 bytes.
		{"tw-comp", twComp, 0.001, 0.5},
		{"tw-comm", twComm, 0.0011, 0.4},
		{"cons-nullmsg", consNull, 0.0087, 5.2},
		{"cold-job", coldJob, 0.425, 80},
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

// TestAllocsRepeatExactly: at GOMAXPROCS 2, ten warm cons-nullmsg runs,
// a collection between each two, all make the same number of
// allocations. An allocation that comes and goes between runs (fmt's
// printers, which sit in a sync.Pool that has a cache per processor and
// that a collection moves aside, once did: 90 to 93 a run) would be noise
// in every count pinned here and in the host benchmark. The count is the
// heap profile's, of the allocations made under this module's code: the
// runtime's own (a thread it starts, a collector's wait record) come and
// go with the host's scheduling. CI runs it five times over.
func TestAllocsRepeatExactly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	spec := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1, Sync: "nullmsg", EndTime: 8}
	// The profile publishes a run's allocations a collection or two late,
	// at the same lag every run: the first three counts cover the run
	// that warms the stashes and that lag.
	counts := make([]int64, 13)
	runtime.GC()
	last := moduleAllocs()
	for i := range counts {
		eng, err := New(spec, Attach{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		n := moduleAllocs()
		counts[i], last = n-last, n
	}
	for _, c := range counts[3:] {
		if c != counts[3] {
			t.Fatalf("allocations per warm run: %v, want one count", counts[3:])
		}
	}
	t.Logf("%d allocations in each of ten warm runs", counts[3])
}

// moduleAllocs returns how many allocations the heap profile has
// published whose stacks pass through this module.
func moduleAllocs() (n int64) {
	recs := make([]runtime.MemProfileRecord, 1024)
	k, ok := runtime.MemProfile(recs, true)
	for ; !ok; k, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, 2*k)
	}
	for _, r := range recs[:k] {
		for frames := runtime.CallersFrames(r.Stack()); ; {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "repro/") {
				if f.Function != "repro/internal/run.moduleAllocs" {
					n += r.AllocObjects
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}
