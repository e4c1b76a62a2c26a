package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/phold"
	"repro/internal/sim"
	"repro/internal/stash"
	"repro/internal/stats"
)

// stashConfig is a rollback-heavy run: history entries, send records and
// anti-messages all come and go from the kept arrays.
func stashConfig(seed uint64) Config {
	return stashShape(cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}, seed)
}

func stashShape(top cluster.Topology, seed uint64) Config {
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

// runReported runs cfg with a recorder and returns its statistics and the
// bytes of its report.
func runReported(t *testing.T, cfg Config) (*stats.Run, []byte) {
	t.Helper()
	cfg.Metrics = metrics.NewRecorder()
	eng := New(cfg)
	r := mustRun(t, eng)
	b, err := eng.Report(r).MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

// TestStashReuseLeaksNothing: a run on arrays that runs of a larger and a
// smaller shape carved and handed back, after those, after a run whose
// poisoned pools wrote every freed event with sentinels, or beside arrays
// a cancelled run took and never gave back, returns the statistics and
// the report bytes of a run on empty stashes.
func TestStashReuseLeaksNothing(t *testing.T) {
	stash.Held(true)
	want, wantReport := runReported(t, stashConfig(1))
	for _, c := range []struct {
		name   string
		before func(t *testing.T)
	}{
		{"after larger and smaller shapes", func(t *testing.T) {}},
		{"after a poisoned run", func(t *testing.T) {
			mustRun(t, Poisoned(New(stashConfig(2))))
		}},
		{"after a cancelled run", func(t *testing.T) {
			a, b := New(stashConfig(3)), New(stashConfig(3)) // arrays for the cancelled run to take, and for the run after
			mustRun(t, a)
			mustRun(t, b)
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
			stash.Held(true)
			mustRun(t, New(stashConfig(1)))
			mustRun(t, New(stashShape(cluster.Topology{Nodes: 3, WorkersPerNode: 3, LPsPerWorker: 12}, 5)))
			mustRun(t, New(stashShape(cluster.Topology{Nodes: 2, WorkersPerNode: 1, LPsPerWorker: 4}, 6)))
			c.before(t)
			if engArrays.Held(false) == 0 {
				t.Fatal("the stash is empty: the run under test reuses nothing")
			}
			got, gotReport := runReported(t, stashConfig(1))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run on a reused stash:\n%+v\nwant, on an empty stash:\n%+v", got, want)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("report on a reused stash differs from the one on an empty stash:\n%s\nwant\n%s", gotReport, wantReport)
			}
		})
	}
}

// TestSpentEngineCannotRun: a finished run has handed its arrays on, so
// its engine keeps no node, worker or LP record in them, and a second Run
// panics naming the engine instead of running over them.
func TestSpentEngineCannotRun(t *testing.T) {
	eng := New(stashConfig(1))
	mustRun(t, eng)
	if eng.nodes != nil || eng.lps != nil {
		t.Errorf("the engine keeps %d nodes and %d LP records after the run", len(eng.nodes), len(eng.lps))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "core: Run called again on a spent engine") {
			t.Errorf("a second Run: recovered %v", r)
		}
	}()
	eng.Run()
}

// TestStashBoundedAfterWideRun: a run whose arrays pass stash.MaxBytes
// (its LP records, pools and history entries) hands none of them to its
// Keep, which a run of a kept shape then fills again, and no Keep holds
// more than MaxBytes.
func TestStashBoundedAfterWideRun(t *testing.T) {
	stash.Held(true)
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 40, LPsPerWorker: 64}
	mustRun(t, New(Config{
		Topology: top, GVT: GVTMattern, Comm: CommDedicated, EndTime: 2, Seed: 1,
		Model: phold.New(phold.Params{Topology: top}),
	}))
	if n := engArrays.Held(false); n != 0 {
		t.Errorf("after a run of %d workers the Keep holds %d B of its arrays, want none", top.TotalWorkers(), n)
	}
	mustRun(t, New(stashConfig(1)))
	if n := engArrays.Held(false); n == 0 || n > stash.MaxBytes {
		t.Errorf("after a small run the Keep holds %d B, want some and at most %d", n, stash.MaxBytes)
	}
	for i, n := range stash.Held(false) {
		if n > stash.MaxBytes {
			t.Errorf("Keep %d holds %d B, over MaxBytes (%d)", i, n, stash.MaxBytes)
		}
	}
}
