package conservative

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/phold"
)

// TestSpentEngineCannotRun: a finished run has handed its events and null
// messages on, so its engine keeps no free list into them, and a second
// Run panics naming the engine instead of running over them.
func TestSpentEngineCannotRun(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
	eng := New(Config{
		Topology: top, Sync: SyncNullMsg, Lookahead: 0.1, EndTime: 3, Seed: 1,
		Model: phold.New(phold.Params{Topology: top, Base: phold.ComputationDominated()}),
	})
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.NullMessages == 0 || eng.nulls != nil || nullStash.Len() == 0 {
		t.Errorf("%d null messages; after the run the free list is %p and the stash keeps %d",
			r.NullMessages, eng.nulls, nullStash.Len())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "conservative: Run called again on a spent engine") {
			t.Errorf("a second Run: recovered %v", r)
		}
	}()
	eng.Run()
}
