package conservative

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

// stashShape is a null-message run of top: events, null messages and
// every build array come and go from the kept arrays.
func stashShape(top cluster.Topology, seed uint64) Config {
	return Config{
		Topology: top, Sync: SyncNullMsg, Lookahead: 0.1, EndTime: 3, Seed: seed,
		Model: phold.New(phold.Params{Topology: top, Base: phold.ComputationDominated()}),
	}
}

var stashTop = cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}

func mustRun(t *testing.T, eng *Engine) *stats.Run {
	t.Helper()
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStashReuseLeaksNothing is core's test of the same name for the
// null-message engine: a run on arrays that runs of a larger and a
// smaller shape carved and handed back, after those, after a poisoned run
// or beside arrays a cancelled run took returns the statistics and the
// report bytes of a run on empty stashes.
func TestStashReuseLeaksNothing(t *testing.T) {
	reported := func(cfg Config) (*stats.Run, []byte) {
		cfg.Metrics = metrics.NewRecorder()
		eng := New(cfg)
		r := mustRun(t, eng)
		b, err := eng.Report(r).MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	stash.Held(true)
	want, wantReport := reported(stashShape(stashTop, 1))
	for _, c := range []struct {
		name   string
		before func(t *testing.T)
	}{
		{"after larger and smaller shapes", func(t *testing.T) {}},
		{"after a poisoned run", func(t *testing.T) {
			mustRun(t, poisoned(New(stashShape(stashTop, 2))))
		}},
		{"after a cancelled run", func(t *testing.T) {
			a, b := New(stashShape(stashTop, 3)), New(stashShape(stashTop, 3)) // arrays for the cancelled run to take, and for the run after
			mustRun(t, a)
			mustRun(t, b)
			cfg := stashShape(stashTop, 4)
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
			mustRun(t, New(stashShape(stashTop, 1)))
			mustRun(t, New(stashShape(cluster.Topology{Nodes: 3, WorkersPerNode: 3, LPsPerWorker: 6}, 5)))
			mustRun(t, New(stashShape(cluster.Topology{Nodes: 2, WorkersPerNode: 1, LPsPerWorker: 2}, 6)))
			c.before(t)
			if engArrays.Held(false) == 0 {
				t.Fatal("the stash is empty: the run under test reuses nothing")
			}
			got, gotReport := reported(stashShape(stashTop, 1))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run on a reused stash:\n%+v\nwant, on an empty stash:\n%+v", got, want)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("report on a reused stash differs from the one on an empty stash:\n%s\nwant\n%s", gotReport, wantReport)
			}
		})
	}
}

// TestSpentEngineCannotRun: a finished run has handed its events, null
// messages and build arrays on, so its engine keeps no free list or node
// into them, and a second Run panics naming the engine instead of running
// over them.
func TestSpentEngineCannotRun(t *testing.T) {
	eng := New(stashShape(stashTop, 1))
	r := mustRun(t, eng)
	if r.NullMessages == 0 || eng.nulls != nil || eng.nodes != nil || engArrays.Held(false) == 0 {
		t.Errorf("%d null messages; after the run the free list is %p, %d nodes are kept and the stash holds %d B",
			r.NullMessages, eng.nulls, len(eng.nodes), engArrays.Held(false))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "conservative: Run called again on a spent engine") {
			t.Errorf("a second Run: recovered %v", r)
		}
	}()
	eng.Run()
}
