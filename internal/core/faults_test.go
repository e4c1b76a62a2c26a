package core_test

import (
	"bytes"
	"fmt"
	"testing"

	core "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// faultConfig is testConfig plus a named built-in fault scenario.
func faultConfig(t *testing.T, scenario string, gvt core.GVTKind) core.Config {
	t.Helper()
	cfg := testConfig(2, 2, 4, gvt, core.CommDedicated)
	cfg.EndTime = 20
	plan, err := fabric.Scenario(scenario, cfg.Topology.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.FaultLabel = scenario
	return cfg
}

// TestFaultScenariosMatchOracle is the robustness counterpart of
// TestOracleEquivalence: under every built-in fault scenario, for both
// token-ring GVT algorithms, the committed event stream must still be
// bit-identical to the sequential oracle — faults may cost time, never
// correctness — and the scenario must have exercised its fault kind.
func TestFaultScenariosMatchOracle(t *testing.T) {
	for _, g := range []core.GVTKind{core.GVTMattern, core.GVTControlled} {
		for _, name := range fabric.ScenarioNames() {
			t.Run(fmt.Sprintf("%v/%s", g, name), func(t *testing.T) {
				cfg := faultConfig(t, name, g)
				r := checkOracle(t, cfg)
				if r.FinalGVT <= cfg.EndTime {
					t.Errorf("final GVT %v did not pass end time %v", r.FinalGVT, cfg.EndTime)
				}
				if injected, named := map[string]bool{
					"drop":      r.FaultDrops > 0 && r.Retransmits > 0,
					"duplicate": r.FaultDups > 0 && r.TransportDups > 0,
					"jitter":    r.FaultJitters > 0,
					"partition": r.FaultWindowDrops > 0,
				}[name]; named && !injected {
					t.Errorf("%s scenario injected no %s faults: %+v", name, name, r)
				}
			})
		}
	}
}

// TestFaultDeterminism: a (seed, fault plan) pair must replay the whole
// run bit-identically, virtual timing and fault counters included.
func TestFaultDeterminism(t *testing.T) {
	run := func() *stats.Run {
		cfg := faultConfig(t, "chaos", core.GVTControlled)
		r, err := core.New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if *a != *b {
		t.Errorf("faulty runs differ:\n%+v\n%+v", a, b)
	}
}

// TestTokenSurvivesMasterPartitions: long bidirectional partition windows
// around the ring master swallow GVT tokens and events alike; the reliable
// transport alone carries every one of them through, so the run completes
// and commits the oracle's stream.
func TestTokenSurvivesMasterPartitions(t *testing.T) {
	for _, g := range []core.GVTKind{core.GVTMattern, core.GVTControlled} {
		t.Run(g.String(), func(t *testing.T) {
			cfg := testConfig(2, 2, 4, g, core.CommDedicated)
			cfg.EndTime = 20
			cfg.Faults = &fabric.FaultPlan{Windows: []fabric.Window{
				{Src: -1, Dst: 0, Every: 8 * sim.Millisecond, Open: 3 * sim.Millisecond, Drop: 1},
				{Src: 0, Dst: -1, Every: 8 * sim.Millisecond, Open: 3 * sim.Millisecond, Drop: 1},
			}}
			cfg.FaultLabel = "master-partition"
			r, err := core.New(cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Retransmits == 0 {
				t.Error("no retransmits despite 3ms partitions of the master")
			}
			ref := seq.New(cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
			if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
				t.Errorf("run diverged from oracle: %x != %x (%d vs %d events)",
					r.CommitChecksum, ref.Checksum, r.Workers.Committed, ref.Processed)
			}
		})
	}
}

// TestStragglerSlowdown: a straggler node must lengthen virtual wall time
// against the fault-free baseline (its workers burn more CPU per event)
// while committing the identical stream.
func TestStragglerSlowdown(t *testing.T) {
	base := testConfig(2, 2, 4, core.GVTControlled, core.CommDedicated)
	base.EndTime = 20
	a, err := core.New(base).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultConfig(t, "straggler", core.GVTControlled)
	b, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if b.WallTime <= a.WallTime {
		t.Errorf("straggler run not slower: %v vs fault-free %v", b.WallTime, a.WallTime)
	}
	if a.CommitChecksum != b.CommitChecksum {
		t.Error("straggler node changed the committed event stream")
	}
}

// TestFaultTraceAndReport: fault events reach the trace and the run
// report carries the robustness counters and scenario label.
func TestFaultTraceAndReport(t *testing.T) {
	cfg := faultConfig(t, "chaos", core.GVTControlled)
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
	a, err := trace.Analyze(&buf, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Faults == nil || a.Faults.Total == 0 {
		t.Fatal("trace recorded no fault events under the chaos scenario")
	}
	if len(a.Faults.ByKind) == 0 {
		t.Error("trace fault kinds empty")
	}
	total := r.FaultDrops + r.FaultDups + r.FaultJitters + r.FaultWindowDrops
	if total == 0 || r.Retransmits == 0 {
		t.Errorf("chaos run stats too quiet: faults=%d retransmits=%d", total, r.Retransmits)
	}
	rep := eng.Report(r)
	if rep.Config.Faults != "chaos" {
		t.Errorf("report fault label = %q, want chaos", rep.Config.Faults)
	}
	if rep.Stats.FaultDrops != r.FaultDrops || rep.Stats.Retransmits != r.Retransmits {
		t.Error("report robustness counters disagree with run stats")
	}
}
