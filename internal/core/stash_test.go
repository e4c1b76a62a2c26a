package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/phold"
	"repro/internal/sim"
	"repro/internal/stats"
)

// dropStashes empties every stash a Time Warp run draws on, so that the
// next run makes every array, as the first run of a process does.
func dropStashes() {
	event.Events.Drop()
	entryStash.Drop()
	recStash.Drop()
}

// stashConfig is a rollback-heavy run: history entries, send records and
// anti-messages all come and go from the stashed arrays.
func stashConfig(seed uint64) Config {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}
	return Config{
		Topology: top, GVT: GVTControlled, Comm: CommDedicated, EndTime: 60, Seed: seed,
		Model: phold.New(phold.Params{Topology: top, Base: phold.CommunicationDominated()}),
	}
}

func mustRun(t *testing.T, eng *Engine) *stats.Run {
	t.Helper()
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStashReuseLeaksNothing: a run on arrays a poisoned run wrote every
// freed event of with sentinels, or beside arrays a cancelled run took and
// never gave back, returns the same statistics as a run on an empty stash.
func TestStashReuseLeaksNothing(t *testing.T) {
	dropStashes()
	want := mustRun(t, New(stashConfig(1)))
	for _, c := range []struct {
		name   string
		before func(t *testing.T)
	}{
		{"after a poisoned run", func(t *testing.T) {
			mustRun(t, Poisoned(New(stashConfig(2))))
		}},
		{"after a cancelled run", func(t *testing.T) {
			mustRun(t, New(stashConfig(3))) // arrays for the cancelled run to take
			cfg := stashConfig(4)
			rec := metrics.NewRecorder()
			cfg.Metrics = rec
			eng := New(cfg)
			rec.OnProgress = func(metrics.ProgressUpdate) { eng.Cancel() }
			if _, err := eng.Run(); !errors.Is(err, sim.ErrCancelled) {
				t.Fatalf("the run to cancel returned %v", err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dropStashes()
			c.before(t)
			if entryStash.Len() == 0 || event.Events.Len() == 0 {
				t.Fatal("the stashes are empty: the run under test reuses nothing")
			}
			if got := mustRun(t, New(stashConfig(1))); !reflect.DeepEqual(got, want) {
				t.Errorf("run on a reused stash:\n%+v\nwant, on an empty stash:\n%+v", got, want)
			}
		})
	}
}

// TestSpentEngineCannotRun: a finished run has handed its arrays on, so
// its engine keeps no free list or history into them, and a second Run
// panics naming the engine instead of running over them.
func TestSpentEngineCannotRun(t *testing.T) {
	eng := New(stashConfig(1))
	mustRun(t, eng)
	for _, n := range eng.nodes {
		for _, w := range n.workers {
			if w.freeEntries != nil || w.freeRecs != nil {
				t.Errorf("worker %d/%d keeps its free lists after the run", n.ID, w.Idx)
			}
		}
	}
	for i := range eng.lps {
		if l := &eng.lps[i]; l.oldest != nil || l.newest != nil {
			t.Errorf("LP %d keeps its history after the run", l.ID)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "core: Run called again on a spent engine") {
			t.Errorf("a second Run: recovered %v", r)
		}
	}()
	eng.Run()
}

// TestStashBoundedAfterWideRun: a run whose workers release more history
// entries than a stash keeps leaves it holding StashMax full arrays' worth.
func TestStashBoundedAfterWideRun(t *testing.T) {
	dropStashes()
	// Each worker's first array holds logsPerLP × 64 entries, up to 256.
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 40, LPsPerWorker: 64}
	eng := New(Config{
		Topology: top, GVT: GVTMattern, Comm: CommDedicated, EndTime: 2, Seed: 1,
		Model: phold.New(phold.Params{Topology: top}),
	})
	mustRun(t, eng)
	for _, n := range eng.nodes {
		for _, w := range n.workers {
			if w.St.Processed == 0 {
				t.Fatalf("worker %d/%d processed nothing: not the run this test needs", n.ID, w.Idx)
			}
		}
	}
	if n, max := entryStash.Len(), event.StashMax*256; n != max {
		t.Errorf("after %d workers' history entries the stash keeps %d, want the bound %d", top.TotalWorkers(), n, max)
	}
}
