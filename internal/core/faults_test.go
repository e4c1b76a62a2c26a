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
// correctness.
func TestFaultScenariosMatchOracle(t *testing.T) {
	for _, g := range []core.GVTKind{core.GVTMattern, core.GVTControlled} {
		for _, name := range fabric.ScenarioNames() {
			t.Run(fmt.Sprintf("%v/%s", g, name), func(t *testing.T) {
				cfg := faultConfig(t, name, g)
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
				if r.FinalGVT <= cfg.EndTime {
					t.Errorf("final GVT %v did not pass end time %v", r.FinalGVT, cfg.EndTime)
				}
				// The scenario must actually have exercised its fault kind.
				switch name {
				case "drop":
					if r.FaultDrops == 0 || r.Retransmits == 0 {
						t.Errorf("drop scenario injected %d drops, %d retransmits", r.FaultDrops, r.Retransmits)
					}
				case "duplicate":
					if r.FaultDups == 0 || r.TransportDups == 0 {
						t.Errorf("duplicate scenario injected %d dups, suppressed %d", r.FaultDups, r.TransportDups)
					}
				case "jitter":
					if r.FaultJitters == 0 {
						t.Error("jitter scenario injected no jitter")
					}
				case "partition":
					if r.FaultWindowDrops == 0 {
						t.Error("partition scenario dropped no packets in windows")
					}
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

// TestFaultFreeRunsUnchanged: setting CheckInvariants (which enables the
// per-round GVT ≤ min(observable) check and in-flight tracking, but no
// faults and no reliable transport) must not perturb the run at all.
func TestFaultFreeRunsUnchanged(t *testing.T) {
	for _, g := range allGVT() {
		base := testConfig(2, 2, 4, g, core.CommDedicated)
		a, err := core.New(base).Run()
		if err != nil {
			t.Fatal(err)
		}
		checked := testConfig(2, 2, 4, g, core.CommDedicated)
		checked.CheckInvariants = true
		b, err := core.New(checked).Run()
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("%v: invariant checking changed the run:\n%+v\n%+v", g, a, b)
		}
	}
}

// TestWatchdogBarrierFallback drives the GVT liveness watchdog: long
// bidirectional partition windows around the ring master exhaust the
// token's transport retry budget, the watchdog resends the lap, and with
// WatchdogFallbackAfter=1 the first resend forces the next round to run
// synchronously — for plain Mattern too, which has no CA sync machinery
// of its own. Correctness must survive all of it.
func TestWatchdogBarrierFallback(t *testing.T) {
	for _, g := range []core.GVTKind{core.GVTMattern, core.GVTControlled} {
		t.Run(g.String(), func(t *testing.T) {
			cfg := testConfig(2, 2, 4, g, core.CommDedicated)
			cfg.EndTime = 20
			cfg.Faults = &fabric.FaultPlan{Windows: []fabric.Window{
				{Src: -1, Dst: 0, Every: 8 * sim.Millisecond, Open: 3 * sim.Millisecond, Drop: 1},
				{Src: 0, Dst: -1, Every: 8 * sim.Millisecond, Open: 3 * sim.Millisecond, Drop: 1},
			}}
			cfg.FaultLabel = "master-partition"
			cfg.WatchdogFallbackAfter = 1
			r, err := core.New(cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.WatchdogRestarts == 0 {
				t.Error("watchdog never restarted a token despite 3ms partitions of the master")
			}
			if r.WatchdogFallbacks == 0 {
				t.Error("watchdog never fell back to a synchronous round")
			}
			if r.SyncRounds == 0 {
				t.Error("forced-synchronous round never executed")
			}
			ref := seq.New(cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
			if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
				t.Errorf("watchdog recovery diverged from oracle: %x != %x (%d vs %d events)",
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

// TestFaultTraceAndReport: fault events reach the v1 trace and the run
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
	if rep.Stats.FaultDrops != r.FaultDrops || rep.Stats.Retransmits != r.Retransmits ||
		rep.Stats.WatchdogRestarts != r.WatchdogRestarts {
		t.Error("report robustness counters disagree with run stats")
	}
}
