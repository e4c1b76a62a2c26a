package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	core "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/models/epidemic"
	"repro/internal/models/pcs"
	"repro/internal/models/tandem"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/trace"
)

// balanceModel is one benchmark model instantiated on the balance-test
// topology (2 nodes x 2 workers x 4 LPs = 16 LPs).
type balanceModel struct {
	name    string
	factory core.ModelFactory
	end     float64
}

func balanceTopology() cluster.Topology {
	return cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
}

func balanceModels(top cluster.Topology) []balanceModel {
	return []balanceModel{
		{"phold", phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: 0.1, RegionalPct: 0.3, EPG: 500},
		}), 30},
		{"epidemic", epidemic.New(epidemic.Params{GridW: 4, GridH: 4}), 30},
		{"pcs", pcs.New(pcs.Params{GridW: 4, GridH: 4}), 60},
		{"tandem", tandem.New(tandem.Params{}), 200},
	}
}

func balancePolicies() []string { return []string{"static", "greedy", "straggler"} }

// compModel is the paper's computation-dominated PHOLD phase (10K EPG,
// 1% remote) with several start events per LP: per-event CPU dominates
// communication, so shifting LPs off a slow node pays. This is the
// workload the migration-benefit tests measure.
func compModel(top cluster.Topology, end float64) balanceModel {
	return balanceModel{"phold-comp", phold.New(phold.Params{
		Topology:    top,
		StartEvents: 4,
		Base:        phold.ComputationDominated(),
	}), end}
}

func balanceConfig(m balanceModel, policy string, gvt core.GVTKind) core.Config {
	top := balanceTopology()
	return core.Config{
		Topology:    top,
		GVT:         gvt,
		GVTInterval: 3,
		Comm:        core.CommDedicated,
		EndTime:     m.end,
		Seed:        42,
		Model:       m.factory,
		Balance:     policy,
	}
}

func checkOracle(t *testing.T, cfg core.Config) *stats.Run {
	t.Helper()
	r, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.New(cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
	if r.CommitChecksum != ref.Checksum {
		t.Errorf("commit checksum %x != oracle %x", r.CommitChecksum, ref.Checksum)
	}
	if r.Workers.Committed != ref.Processed {
		t.Errorf("committed %d events, oracle processed %d", r.Workers.Committed, ref.Processed)
	}
	return r
}

// TestBalancedOracleEquivalence: for every policy and every benchmark
// model, the committed event stream must stay bit-identical to the
// sequential oracle. On a fault-free, evenly loaded cluster the policies
// may or may not decide to move anything; either way correctness holds.
func TestBalancedOracleEquivalence(t *testing.T) {
	for _, m := range balanceModels(balanceTopology()) {
		for _, pol := range balancePolicies() {
			t.Run(fmt.Sprintf("%s/%s", m.name, pol), func(t *testing.T) {
				checkOracle(t, balanceConfig(m, pol, core.GVTControlled))
			})
		}
	}
}

// TestBalancedOracleUnderStraggler repeats the oracle check under the
// built-in straggler fault scenario (the last node's cores run 4x
// slower), the regime the balancer exists for. Migrations must actually
// happen for the migrating policies on at least one model, and must
// never change the committed stream.
func TestBalancedOracleUnderStraggler(t *testing.T) {
	moved := map[string]int64{}
	for _, m := range balanceModels(balanceTopology()) {
		for _, pol := range balancePolicies() {
			t.Run(fmt.Sprintf("%s/%s", m.name, pol), func(t *testing.T) {
				cfg := balanceConfig(m, pol, core.GVTControlled)
				plan, err := fabric.Scenario("straggler", cfg.Topology.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
				cfg.FaultLabel = "straggler"
				r := checkOracle(t, cfg)
				if pol == "static" && r.Migrations != 0 {
					t.Errorf("static policy migrated %d LPs", r.Migrations)
				}
				moved[pol] += r.Migrations
			})
		}
	}
	for _, pol := range []string{"greedy", "straggler"} {
		if moved[pol] == 0 {
			t.Errorf("policy %q never migrated an LP under the straggler scenario", pol)
		}
	}
}

// TestMigrationAcrossGVTAlgorithms drives migrating runs through every
// GVT algorithm: migration messages participate in each protocol's
// transit accounting differently (Mattern/CA message colors, the barrier
// drain loop, Samadi acknowledgements), and each must stay exact. The
// fault plan auto-enables the per-round GVT invariant check.
func TestMigrationAcrossGVTAlgorithms(t *testing.T) {
	m := compModel(balanceTopology(), 60)
	for _, g := range allGVT() {
		t.Run(g.String(), func(t *testing.T) {
			cfg := balanceConfig(m, "greedy", g)
			plan, err := fabric.Scenario("straggler", cfg.Topology.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			cfg.FaultLabel = "straggler"
			if checkOracle(t, cfg).Migrations == 0 {
				t.Errorf("%v: greedy policy never migrated under the straggler scenario", g)
			}
		})
	}
}

// TestBalanceStaticByteIdentical: Balance "static" (and "") must take
// the zero-overhead path — the whole stats.Run, virtual timing included,
// must equal a run of the same configuration without the field set.
func TestBalanceStaticByteIdentical(t *testing.T) {
	for _, g := range allGVT() {
		m := balanceModels(balanceTopology())[0]
		base := balanceConfig(m, "", g)
		a, err := core.New(base).Run()
		if err != nil {
			t.Fatal(err)
		}
		cfg := balanceConfig(m, "static", g)
		b, err := core.New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("%v: static balance policy perturbed the run:\n%+v\n%+v", g, a, b)
		}
	}
}

// TestBalanceDeterminism: a migrating run must replay bit-identically,
// virtual timing and migration counters included.
func TestBalanceDeterminism(t *testing.T) {
	run := func() *stats.Run {
		m := balanceModels(balanceTopology())[0]
		cfg := balanceConfig(m, "greedy", core.GVTControlled)
		plan, err := fabric.Scenario("straggler", cfg.Topology.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
		eng := core.New(cfg)
		r, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("migrating runs differ:\n%+v\n%+v", a, b)
	}
}

// TestGreedyReducesStragglerWallTime is the headline regression: with
// the last node's cores 4x slower, the greedy balancer must finish the
// same simulation in measurably less virtual wall-clock than the static
// placement. The 0.95 factor is deliberately conservative — the observed
// improvement is ~25% (see EXPERIMENTS.md) — so cost-model tuning
// doesn't flake the suite while a genuine regression still fails.
func TestGreedyReducesStragglerWallTime(t *testing.T) {
	run := func(policy string) *stats.Run {
		cfg := balanceConfig(compModel(balanceTopology(), 120), policy, core.GVTControlled)
		plan, err := fabric.Scenario("straggler", cfg.Topology.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
		cfg.FaultLabel = "straggler"
		return checkOracle(t, cfg)
	}
	static := run("static")
	greedy := run("greedy")
	if greedy.Migrations == 0 {
		t.Fatal("greedy policy never migrated; nothing is being measured")
	}
	limit := static.WallTime * 95 / 100
	if greedy.WallTime > limit {
		t.Errorf("greedy did not beat static placement: wall %v vs static %v (limit %v)",
			greedy.WallTime, static.WallTime, limit)
	}
	t.Logf("straggler wall-clock: static=%v greedy=%v (%.1f%%), %d migrations",
		static.WallTime, greedy.WallTime,
		100*float64(greedy.WallTime)/float64(static.WallTime), greedy.Migrations)
}

// TestMigrationTraceAndReport: every migration must surface in the v2
// trace and in the run report, with source, destination and round.
func TestMigrationTraceAndReport(t *testing.T) {
	cfg := balanceConfig(compModel(balanceTopology(), 60), "greedy", core.GVTControlled)
	plan, err := fabric.Scenario("straggler", cfg.Topology.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.FaultLabel = "straggler"
	var buf bytes.Buffer
	cfg.Trace = trace.NewWriter(&buf)
	eng := core.New(cfg)
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Migrations == 0 {
		t.Fatal("no migrations; nothing to verify")
	}

	data := buf.Bytes()
	a, err := trace.Analyze(bytes.NewReader(data), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceVersion != trace.Version {
		t.Errorf("trace version = %d, want %d", a.TraceVersion, trace.Version)
	}
	if a.Imbalance == nil {
		t.Fatal("a multi-node trace has no imbalance analysis")
	}
	if a.Imbalance.Migrations != r.Migrations {
		t.Errorf("trace has %d migration records, run stats say %d", a.Imbalance.Migrations, r.Migrations)
	}
	if a.Imbalance.MigratedEvents != r.MigratedEvents {
		t.Errorf("trace migrated events %d != run stats %d", a.Imbalance.MigratedEvents, r.MigratedEvents)
	}
	total := cfg.Topology.TotalLPs()
	err = trace.NewReader(bytes.NewReader(data)).ForEach(trace.Visitor{
		Migration: func(mg trace.Migration) {
			if mg.SrcNode == mg.DstNode {
				t.Errorf("migration of LP %d has src == dst == %d", mg.LP, mg.SrcNode)
			}
			if int(mg.LP) >= total {
				t.Errorf("migration of unknown LP %d", mg.LP)
			}
			if int(mg.SrcNode) >= cfg.Topology.Nodes || int(mg.DstNode) >= cfg.Topology.Nodes {
				t.Errorf("migration names nodes %d->%d outside the cluster", mg.SrcNode, mg.DstNode)
			}
			if mg.Round <= 0 {
				t.Errorf("migration of LP %d at non-positive GVT round %d", mg.LP, mg.Round)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	rep := eng.Report(r)
	if rep.Config.Balance != "greedy" {
		t.Errorf("report balance = %q, want greedy", rep.Config.Balance)
	}
	if rep.Stats.Migrations != r.Migrations || rep.Stats.MigratedEvents != r.MigratedEvents {
		t.Error("report migration counters disagree with run stats")
	}
}

// TestBalanceConfigValidation: unknown policy names must be rejected at
// Validate time, and all published names accepted.
func TestBalanceConfigValidation(t *testing.T) {
	m := balanceModels(balanceTopology())[0]
	cfg := balanceConfig(m, "round-robin", core.GVTControlled)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown balance policy accepted")
	}
	for _, pol := range append(balancePolicies(), "", "none") {
		cfg := balanceConfig(m, pol, core.GVTControlled)
		if err := cfg.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", pol, err)
		}
	}
}
