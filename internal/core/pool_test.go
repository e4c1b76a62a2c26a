package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	core "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/phold"
)

// stragglerPlan builds the built-in straggler fault scenario for the
// balance-test topology.
func stragglerPlan(t *testing.T) *fabric.FaultPlan {
	t.Helper()
	plan, err := fabric.Scenario("straggler", balanceTopology().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// poolGVTs are the four GVT algorithms the pool parity sweep covers.
func poolGVTs() []core.GVTKind {
	return []core.GVTKind{core.GVTBarrier, core.GVTMattern, core.GVTControlled, core.GVTSamadi}
}

// TestPoolParityAcrossModelsAndGVT: event recycling must be invisible.
// For every benchmark model and every GVT algorithm, the default pool and
// PoolDebug (the same free lists plus poison and liveness asserts) both
// commit exactly the sequential oracle's event stream, at the same virtual
// wall-clock. The debug leg doubles as a use-after-recycle sweep over
// every recycle point the engine has: one stale write anywhere and the
// poisoned pool panics.
func TestPoolParityAcrossModelsAndGVT(t *testing.T) {
	for _, m := range balanceModels(balanceTopology()) {
		for _, gvt := range poolGVTs() {
			t.Run(fmt.Sprintf("%s/%s", m.name, gvt), func(t *testing.T) {
				cfg := balanceConfig(m, "", gvt)
				on := checkOracle(t, cfg)
				cfg.PoolDebug = true
				dbg := checkOracle(t, cfg)
				if on.WallTime != dbg.WallTime {
					t.Errorf("PoolDebug moved virtual time: %v, default pool %v", dbg.WallTime, on.WallTime)
				}
				if on.PoolRecycled == 0 {
					t.Error("the pool recycled nothing (not wired in?)")
				}
			})
		}
	}
}

// TestPoolParityUnderFaultsAndMigration extends the parity check to the
// adversarial regime: straggler faults plus the greedy balancer, where
// events additionally travel through the reliable transport, limbo
// mailboxes and LP migration packs. Recycling an event any of those
// structures still references would change the stream (or panic the
// debug leg).
func TestPoolParityUnderFaultsAndMigration(t *testing.T) {
	m := compModel(balanceTopology(), 60)
	for _, debug := range []bool{false, true} {
		cfg := balanceConfig(m, "greedy", core.GVTControlled)
		cfg.PoolDebug = debug
		cfg.Faults = stragglerPlan(t)
		cfg.FaultLabel = "straggler"
		t.Run(fmt.Sprintf("debug=%v", debug), func(t *testing.T) { checkOracle(t, cfg) })
	}
}

// TestRollbackAllocatesNoAntiBuffer: a rollback collects the cancellations
// it must route in a buffer the worker keeps, so once that has grown to
// the deepest rollback seen, rolling back allocates nothing. On a
// tw-comm-shaped run — thousands of rollbacks, most cancelling something —
// a slice built from nil each time is at least one allocation per such
// rollback, and was two thirds of the run's; what is left (queue and
// history growth, coroutines, the fabric's per-packet closures) is fewer
// allocations than there are rollbacks.
func TestRollbackAllocatesNoAntiBuffer(t *testing.T) {
	top := cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 8}
	eng := core.New(core.Config{
		Topology: top, GVT: core.GVTControlled, Comm: core.CommDedicated,
		EndTime: 150, Seed: 1,
		Model: phold.New(phold.Params{Topology: top, Base: phold.CommunicationDominated()}),
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := eng.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations, %d rollbacks, %d anti-messages, %d commits", allocs, r.Workers.Rollbacks, r.Workers.AntiSent, r.Workers.Committed)
	if r.Workers.Rollbacks < 5000 {
		t.Fatalf("only %d rollbacks: not the rollback-heavy run this test needs", r.Workers.Rollbacks)
	}
	if allocs >= uint64(r.Workers.Rollbacks) {
		t.Errorf("%d allocations in a run of %d rollbacks: rollback allocates again", allocs, r.Workers.Rollbacks)
	}
}
