package run

import (
	"runtime"
	"testing"

	"repro/internal/stash"
)

// buildAllocsOf returns the heap allocations New alone makes for spec and
// their bytes, each the least of three builds (see allocsOf). Each build
// is on empty stashes, as the first of a process is: what it costs does
// not hang on the runs before it.
func buildAllocsOf(tb testing.TB, spec Spec) (mallocs, bytes uint64) {
	return buildAllocs(tb, spec, false)
}

// buildAllocs is buildAllocsOf, or with warm set the same on the stashes a
// run of spec has just filled: each build is run after it is counted.
func buildAllocs(tb testing.TB, spec Spec, warm bool) (mallocs, bytes uint64) {
	tb.Helper()
	for i := 0; i < 3; i++ {
		if !warm {
			stash.Held(true)
		} else if _, err := runSpec(spec); err != nil {
			tb.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := New(spec, Attach{})
		runtime.ReadMemStats(&after)
		if err != nil {
			tb.Fatal(err)
		}
		if warm {
			eng.Run()
		}
		if m := after.Mallocs - before.Mallocs; i == 0 || m < mallocs {
			mallocs = m
		}
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < bytes {
			bytes = b
		}
	}
	return mallocs, bytes
}

// buildShapes are the specs BenchmarkEngineBuild builds: the three engine
// shapes of the host benchmark, the job service's cold-job spec and the
// paper's testbed width (8 KNL nodes x 60 workers x 128 LPs).
func buildShapes() []struct {
	name string
	spec Spec
} {
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComp, twComm, consNull := shape, shape, shape
	twComp.GVT, twComp.EndTime = "mattern", 100
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 150
	consNull.Sync, consNull.EndTime = "nullmsg", 8
	paper := Spec{Nodes: 8, WorkersPerNode: 60, LPsPerWorker: 128, Seed: 1, EndTime: 3}
	paperTW, paperNull := paper, paper
	paperTW.GVT, paperNull.Sync = "mattern", "nullmsg"
	return []struct {
		name string
		spec Spec
	}{
		{"tw-comp", twComp},
		{"tw-comm", twComm},
		{"cons-nullmsg", consNull},
		{"cold-job", Spec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: 1}},
		{"paper-width/mattern", paperTW},
		{"paper-width/nullmsg", paperNull},
	}
}

// BenchmarkEngineBuild prices New alone — the engine's build, before the
// first event — on each of buildShapes. Run with -benchmem.
func BenchmarkEngineBuild(b *testing.B) {
	for _, c := range buildShapes() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(c.spec, Attach{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineStart prices New and Run together — a run's fixed cost
// with its threads' spawn — on the job service's cold-job spec and the
// cons-nullmsg shape, whose allocations are nearly all fixed cost: a
// thread's allocations, reintroduced, show in allocs/op. Each iteration
// is a warm process's run, on the arrays the one before handed back.
func BenchmarkEngineStart(b *testing.B) {
	for _, c := range buildShapes() {
		if c.name != "cold-job" && c.name != "cons-nullmsg" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New(c.spec, Attach{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEngineBuildAllocsPinned holds an engine's build to a cost per
// worker: with nodes x workers fixed, doubling the LPs per worker may add
// at most 0.05 allocations per extra LP, and no more bytes per extra LP
// than before. Each LP's model, RNG stream, seed event and LP record come
// from slabs and arrays (DESIGN.md "Allocations per commit", Set-up in
// slabs). With the LPs per worker fixed, doubling the workers per node may
// add no more allocations per extra worker than the few a worker's thread
// and records cost now.
func TestEngineBuildAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	shape := Spec{Nodes: 4, WorkersPerNode: 4, Seed: 1, EndTime: 8}
	mattern, nullmsg := shape, shape
	mattern.GVT, nullmsg.Sync = "mattern", "nullmsg"
	for _, c := range []struct {
		name        string
		spec        Spec
		bytesBound  float64 // bytes per extra LP
		workerBound float64 // allocations per extra worker
		warmBound   uint64  // allocations of a warm build, any width
	}{
		// Before set-up moved to slabs the engines paid 4.13 and 3.06
		// allocations and 374.9 and 258.0 bytes per extra LP: a model, an
		// RNG stream, a seed event and a Time Warp LP record each, and the
		// doubling of slices.
		// Before a run's names, idle passes and run-time slices were sized
		// at build, 22.4 and 11.1 allocations per extra worker. Before Time
		// Warp's workers came from node-wide arrays, with an engine-wide LP
		// table and no idle-pass closures, 12.44 and 362.0 bytes per extra
		// LP.
		{"mattern", mattern, 330, 2, 14},
		{"nullmsg", nullmsg, 257, 1.5, 14},
	} {
		lo, hi := c.spec, c.spec
		lo.LPsPerWorker, hi.LPsPerWorker = 16, 32
		loAllocs, loBytes := buildAllocsOf(t, lo)
		hiAllocs, hiBytes := buildAllocsOf(t, hi)
		extra := float64(hi.Nodes * hi.WorkersPerNode * (hi.LPsPerWorker - lo.LPsPerWorker))
		per := (float64(hiAllocs) - float64(loAllocs)) / extra
		perBytes := (float64(hiBytes) - float64(loBytes)) / extra
		t.Logf("%s: %d → %d allocations, %d → %d bytes = %.3f allocations, %.1f bytes per extra LP",
			c.name, loAllocs, hiAllocs, loBytes, hiBytes, per, perBytes)
		if per > 0.05 {
			t.Errorf("%s: %.3f allocations per extra LP, bound 0.05", c.name, per)
		}
		if perBytes > c.bytesBound {
			t.Errorf("%s: %.1f bytes per extra LP, bound %v", c.name, perBytes, c.bytesBound)
		}

		wide := lo
		wide.WorkersPerNode *= 2
		wideAllocs, _ := buildAllocsOf(t, wide)
		workers := float64(wide.Nodes * (wide.WorkersPerNode - lo.WorkersPerNode))
		perWorker := (float64(wideAllocs) - float64(loAllocs)) / workers
		t.Logf("%s: %d x %d → %d x %d workers: %d → %d allocations = %.2f per extra worker",
			c.name, lo.Nodes, lo.WorkersPerNode, wide.Nodes, wide.WorkersPerNode, loAllocs, wideAllocs, perWorker)
		if perWorker > c.workerBound {
			t.Errorf("%s: %.2f allocations per extra worker, bound %v", c.name, perWorker, c.workerBound)
		}

		// A warm process's build takes every array from the stashes: what
		// is left is its engine, kernel, world and fabric records, their
		// bound methods, the names and the model factory, the same at
		// every width.
		for _, spec := range []Spec{lo, hi, wide} {
			if warm, _ := buildAllocs(t, spec, true); warm > c.warmBound {
				t.Errorf("%s: a warm build of %d x %d x %d made %d allocations, bound %d",
					c.name, spec.Nodes, spec.WorkersPerNode, spec.LPsPerWorker, warm, c.warmBound)
			} else {
				t.Logf("%s: a warm build of %d x %d x %d: %d allocations", c.name, spec.Nodes, spec.WorkersPerNode, spec.LPsPerWorker, warm)
			}
		}
	}
}
