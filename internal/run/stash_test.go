package run

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestConcurrentRunsShareStash: engines of two shapes and both kinds,
// run at once so that they take and hand back arrays of the same stashes
// in turn, each return the statistics they return alone. Under -race this
// is also the check that the stashes hand an array to one engine at a
// time, cleared after the last.
func TestConcurrentRunsShareStash(t *testing.T) {
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComm, consNull := shape, shape // the host benchmark's shapes, run shorter
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 50
	consNull.Sync, consNull.EndTime = "nullmsg", 3
	specs := []Spec{twComm, consNull}
	runSpec := func(spec Spec) (*stats.Run, error) {
		eng, err := New(spec, Attach{})
		if err != nil {
			return nil, err
		}
		return eng.Run()
	}
	solo := make([]*stats.Run, len(specs))
	for i, spec := range specs {
		r, err := runSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = r
	}
	for round := range 2 {
		got, errs := make([]*stats.Run, len(specs)), make([]error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = runSpec(spec)
			}()
		}
		wg.Wait()
		for i := range specs {
			if errs[i] != nil {
				t.Fatalf("round %d, engine %d: %v", round, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], solo[i]) {
				t.Errorf("round %d, engine %d run beside another:\n%+v\nwant, alone:\n%+v", round, i, got[i], solo[i])
			}
		}
	}
}
