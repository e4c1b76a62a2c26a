package run

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
)

// stashSpecs are the host benchmark's tw-comm and cons-nullmsg shapes,
// run shorter: one engine of each kind.
func stashSpecs() (twComm, consNull Spec) {
	shape := Spec{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16, Seed: 1}
	twComm, consNull = shape, shape
	twComm.GVT, twComm.Scenario, twComm.LPsPerWorker, twComm.EndTime = "ca-gvt", "comm", 8, 50
	consNull.Sync, consNull.EndTime = "nullmsg", 3
	return twComm, consNull
}

func runSpec(spec Spec) (*stats.Run, error) {
	eng, err := New(spec, Attach{})
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// TestConcurrentRunsShareStash: engines of two shapes and both kinds, two
// of each run at once so that they take and hand back arrays of the same
// stashes in turn, each return the statistics they return alone. Under
// -race this is also the check that the stashes hand an array to one
// engine at a time, cleared after the last.
func TestConcurrentRunsShareStash(t *testing.T) {
	twComm, consNull := stashSpecs()
	specs := []Spec{twComm, consNull, twComm, consNull}
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

// TestCancelAfterRunLeavesOthers: Cancel on an engine whose Run has
// returned, and whose arrays the next engine now runs on, leaves that run
// as it runs alone, called as often as it may be while the other runs.
func TestCancelAfterRunLeavesOthers(t *testing.T) {
	twComm, consNull := stashSpecs()
	for _, spec := range []Spec{twComm, consNull} {
		spent, err := New(spec, Attach{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := spent.Run()
		if err != nil {
			t.Fatal(err)
		}
		other, err := New(spec, Attach{}) // on the spent engine's arrays
		if err != nil {
			t.Fatal(err)
		}
		ran := make(chan error)
		var got *stats.Run
		go func() {
			var err error
			got, err = other.Run()
			ran <- err
		}()
		for cancels := 0; ; cancels++ {
			select {
			case err := <-ran:
				if err != nil {
					t.Fatalf("%s after %d Cancels of the spent engine: %v", spec.Sync+spec.GVT, cancels, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s beside a spent engine's Cancels:\n%+v\nwant, alone:\n%+v", spec.Sync+spec.GVT, got, want)
				}
			default:
				spent.Cancel()
				continue
			}
			break
		}
	}
}
