package core_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	core "repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/vtime"
)

// testConfig returns a small but non-trivial configuration.
func testConfig(nodes, workers, lps int, gvt core.GVTKind, comm core.CommMode) core.Config {
	top := cluster.Topology{Nodes: nodes, WorkersPerNode: workers, LPsPerWorker: lps}
	return core.Config{
		Topology:    top,
		GVT:         gvt,
		GVTInterval: 3,
		Comm:        comm,
		EndTime:     30,
		Seed:        42,
		Model: phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: remoteFor(nodes), RegionalPct: 0.3, EPG: 500},
		}),
	}
}

func remoteFor(nodes int) float64 {
	if nodes > 1 {
		return 0.1
	}
	return 0
}

func run(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	eng := core.New(cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatalf("%v/%v: %v", cfg.GVT, cfg.Comm, err)
	}
	return eng
}

func allGVT() []core.GVTKind {
	return []core.GVTKind{core.GVTBarrier, core.GVTMattern, core.GVTControlled, core.GVTSamadi}
}

func allComm() []core.CommMode {
	return []core.CommMode{core.CommDedicated, core.CommCombined, core.CommShared}
}

// TestOracleEquivalence is the central correctness test: for every GVT
// algorithm, comm mode and several topologies, the parallel engine's
// committed event stream must equal the sequential oracle's exactly.
func TestOracleEquivalence(t *testing.T) {
	shapes := []struct{ nodes, workers, lps int }{
		{1, 1, 8},
		{1, 4, 4},
		{2, 2, 4},
		{4, 3, 2},
	}
	for _, sh := range shapes {
		for _, g := range allGVT() {
			for _, c := range allComm() {
				name := fmt.Sprintf("%dx%dx%d/%v/%v", sh.nodes, sh.workers, sh.lps, g, c)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig(sh.nodes, sh.workers, sh.lps, g, c)
					eng := core.New(cfg)
					r, err := eng.Run()
					if err != nil {
						t.Fatal(err)
					}
					ref := seq.New(cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
					if r.Workers.Committed != ref.Processed {
						t.Errorf("committed %d events, oracle processed %d", r.Workers.Committed, ref.Processed)
					}
					if r.CommitChecksum != ref.Checksum {
						t.Errorf("commit checksum %x != oracle %x", r.CommitChecksum, ref.Checksum)
					}
					if r.Workers.Committed == 0 {
						t.Error("no events committed")
					}
					if r.FinalGVT <= cfg.EndTime {
						t.Errorf("final GVT %v did not pass end time %v", r.FinalGVT, cfg.EndTime)
					}
				})
			}
		}
	}
}

// TestDeterminism: identical configuration and seed must yield identical
// statistics, including virtual timing.
func TestDeterminism(t *testing.T) {
	for _, g := range allGVT() {
		cfg := testConfig(2, 2, 4, g, core.CommDedicated)
		a, err := core.New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Errorf("%v: runs differ:\n%+v\n%+v", g, a, b)
		}
	}
}

// TestSeedSensitivity: different seeds must change the event stream.
func TestSeedSensitivity(t *testing.T) {
	cfg := testConfig(2, 2, 4, core.GVTMattern, core.CommDedicated)
	a, _ := core.New(cfg).Run()
	cfg.Seed = 43
	b, _ := core.New(cfg).Run()
	if a.CommitChecksum == b.CommitChecksum {
		t.Error("different seeds produced identical commit streams")
	}
}

// TestRollbacksHappen: the communication-heavy configuration must actually
// exercise rollback machinery, otherwise the oracle test proves little.
func TestRollbacksHappen(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}
	cfg := core.Config{
		Topology:    top,
		GVT:         core.GVTMattern,
		GVTInterval: 3,
		Comm:        core.CommDedicated,
		EndTime:     25,
		Seed:        7,
		Model: phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: 0.1, RegionalPct: 0.7, EPG: 1500},
		}),
	}
	eng := core.New(cfg)
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers.Rollbacks == 0 {
		t.Error("no rollbacks in a communication-heavy run; test configuration too tame")
	}
	if r.Workers.AntiSent == 0 {
		t.Error("rollbacks occurred but no anti-messages were sent")
	}
	ref := seq.New(cfg.Model, top.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
	if r.CommitChecksum != ref.Checksum {
		t.Errorf("with rollbacks: checksum %x != oracle %x", r.CommitChecksum, ref.Checksum)
	}
	if r.Efficiency() >= 1.0 {
		t.Error("efficiency 100% despite rollbacks")
	}
}

// TestGVTMonotonic: successive GVT values never decrease, and every GVT is
// a valid lower bound (the engine panics on violations internally).
func TestGVTMonotonic(t *testing.T) {
	for _, g := range allGVT() {
		cfg := testConfig(2, 2, 4, g, core.CommDedicated)
		var traces []metrics.ProgressUpdate
		cfg.Metrics = &metrics.Recorder{OnProgress: func(u metrics.ProgressUpdate) { traces = append(traces, u) }}
		if _, err := core.New(cfg).Run(); err != nil {
			t.Fatal(err)
		}
		if len(traces) < 2 {
			t.Fatalf("%v: only %d GVT rounds", g, len(traces))
		}
		prev := -1.0
		for _, tr := range traces {
			if tr.GVT < prev {
				t.Errorf("%v: GVT went backwards: %v after %v", g, tr.GVT, prev)
			}
			prev = tr.GVT
		}
		// GVT must make forward progress overall.
		if traces[len(traces)-1].GVT <= traces[0].GVT {
			t.Errorf("%v: no GVT progress across rounds", g)
		}
	}
}

// TestSingleWorkerNoRollbacks: one worker, one node has no transit at all;
// everything is local and efficiency is 100%.
func TestSingleWorkerNoRollbacks(t *testing.T) {
	cfg := testConfig(1, 1, 16, core.GVTMattern, core.CommDedicated)
	r, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers.Rollbacks != 0 {
		t.Errorf("single worker rolled back %d times", r.Workers.Rollbacks)
	}
	if r.Efficiency() != 1.0 {
		t.Errorf("single worker efficiency = %v", r.Efficiency())
	}
}

// TestCASyncActivation: with a hostile workload and a high threshold,
// CA-GVT must execute some rounds synchronously; with threshold 0 it
// must stay asynchronous.
func TestCASyncActivation(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}
	base := core.Config{
		Topology:    top,
		GVT:         core.GVTControlled,
		GVTInterval: 3,
		Comm:        core.CommDedicated,
		EndTime:     25,
		Seed:        7,
		Model: phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: 0.1, RegionalPct: 0.7, EPG: 1500},
		}),
	}

	base.CAThreshold = 0.999
	r, err := core.New(base).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.SyncRounds == 0 {
		t.Error("threshold 0.999: CA-GVT never synchronized despite heavy rollbacks")
	}

	base.CAThreshold = 0.0001
	r2, err := core.New(base).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.SyncRounds != 0 {
		t.Errorf("threshold ~0: CA-GVT ran %d sync rounds", r2.SyncRounds)
	}

	// Both must still be correct.
	ref := seq.New(base.Model, top.TotalLPs(), base.EndTime, base.Seed).Run()
	if r.CommitChecksum != ref.Checksum || r2.CommitChecksum != ref.Checksum {
		t.Error("CA-GVT checksum mismatch against oracle")
	}
}

// TestMessageClassAccounting: sends are classified correctly (no remote
// traffic on one node; no regional traffic with one worker per node).
func TestMessageClassAccounting(t *testing.T) {
	r, err := core.New(testConfig(1, 4, 4, core.GVTMattern, core.CommDedicated)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers.SentRemote != 0 {
		t.Errorf("single node sent %d remote messages", r.Workers.SentRemote)
	}
	if r.Workers.SentRegion == 0 {
		t.Error("multi-worker node sent no regional messages")
	}
	if r.MPIMessages != 0 {
		t.Errorf("single node used MPI %d times", r.MPIMessages)
	}

	r2, err := core.New(testConfig(2, 1, 8, core.GVTMattern, core.CommDedicated)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Workers.SentRegion != 0 {
		t.Errorf("one worker per node sent %d regional messages", r2.Workers.SentRegion)
	}
	if r2.Workers.SentRemote == 0 {
		t.Error("two nodes exchanged no remote messages")
	}
	if r2.MPIMessages == 0 {
		t.Error("two nodes used no MPI messages")
	}
}

// TestConfigValidation exercises core.Config.Validate.
func TestConfigValidation(t *testing.T) {
	good := testConfig(1, 1, 1, core.GVTBarrier, core.CommDedicated)
	good.Defaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []func(*core.Config){
		func(c *core.Config) { c.Model = nil },
		func(c *core.Config) { c.EndTime = 0 },
		func(c *core.Config) { c.GVTInterval = 1 },
		func(c *core.Config) { c.CAThreshold = 1.5 },
		func(c *core.Config) { c.Topology.Nodes = 0 },
	}
	for i, mutate := range cases {
		cfg := testConfig(1, 1, 1, core.GVTBarrier, core.CommDedicated)
		cfg.Defaults()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestGVTKindStrings covers the enum stringers.
func TestGVTKindStrings(t *testing.T) {
	if core.GVTBarrier.String() != "barrier" || core.GVTMattern.String() != "mattern" ||
		core.GVTControlled.String() != "ca-gvt" || core.GVTSamadi.String() != "samadi" {
		t.Error("core.GVTKind strings wrong")
	}
	if core.CommDedicated.String() != "dedicated" || core.CommCombined.String() != "combined" ||
		core.CommShared.String() != "shared" {
		t.Error("core.CommMode strings wrong")
	}
}

// TestBarrierWaitRecorded: barrier GVT must record idle time at barriers.
func TestBarrierWaitRecorded(t *testing.T) {
	r, err := core.New(testConfig(2, 2, 4, core.GVTBarrier, core.CommDedicated)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers.BarrierWait == 0 {
		t.Error("barrier GVT recorded zero barrier wait time")
	}
	if r.GVTRounds == 0 {
		t.Error("no GVT rounds recorded")
	}
}

// TestWallTimePositive and event rate sanity.
func TestWallTimePositive(t *testing.T) {
	r, err := core.New(testConfig(2, 2, 4, core.GVTMattern, core.CommDedicated)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.WallTime <= 0 {
		t.Error("non-positive virtual wall time")
	}
	if r.EventRate() <= 0 {
		t.Error("non-positive event rate")
	}
}

// TestMixedModelPhases: the mixed workload must produce both regimes and
// still match the oracle.
func TestMixedModelPhases(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
	end := vtime.Time(20)
	model := phold.New(phold.Params{
		Topology: top,
		Base:     phold.Phase{RemotePct: 0.01, RegionalPct: 0.1, EPG: 3000},
		Mixed: &phold.MixedModel{
			Comm:     phold.Phase{RemotePct: 0.1, RegionalPct: 0.8, EPG: 1500},
			CompFrac: 10, CommFrac: 15, EndTime: end,
		},
	})
	cfg := core.Config{
		Topology: top, GVT: core.GVTControlled, GVTInterval: 3,
		Comm: core.CommDedicated, EndTime: end, Seed: 11, Model: model,
	}
	r, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.New(model, top.TotalLPs(), end, 11).Run()
	if r.CommitChecksum != ref.Checksum {
		t.Errorf("mixed model checksum mismatch: %x != %x", r.CommitChecksum, ref.Checksum)
	}
}

// TestCheckpointIntervals: infrequent state saving (snapshot every k-th
// event + coast-forward on rollback) must not change the committed stream,
// under a rollback-heavy workload.
func TestCheckpointIntervals(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}
	base := core.Config{
		Topology:    top,
		GVT:         core.GVTMattern,
		GVTInterval: 3,
		Comm:        core.CommDedicated,
		EndTime:     25,
		Seed:        7,
		Model: phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: 0.1, RegionalPct: 0.6, EPG: 1500},
		}),
	}
	ref := seq.New(base.Model, top.TotalLPs(), base.EndTime, base.Seed).Run()
	for _, k := range []int{1, 2, 4, 16} {
		cfg := base
		cfg.CheckpointInterval = k
		r, err := core.New(cfg).Run()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if r.Workers.Rollbacks == 0 {
			t.Fatalf("k=%d: no rollbacks; test too tame", k)
		}
		if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
			t.Errorf("k=%d: committed stream diverged from oracle", k)
		}
	}
}

// TestMaxUncommittedThrottle: a tiny optimism bound must still complete
// and commit the oracle stream, just more slowly.
func TestMaxUncommittedThrottle(t *testing.T) {
	cfg := testConfig(2, 2, 8, core.GVTMattern, core.CommDedicated)
	cfg.MaxUncommitted = 4 // absurdly tight
	r, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.New(cfg.Model, cfg.Topology.TotalLPs(), cfg.EndTime, cfg.Seed).Run()
	if r.CommitChecksum != ref.Checksum {
		t.Error("throttled run diverged from oracle")
	}
	loose := testConfig(2, 2, 8, core.GVTMattern, core.CommDedicated)
	loose.MaxUncommitted = -1 // disabled
	r2, err := core.New(loose).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.CommitChecksum != ref.Checksum {
		t.Error("unthrottled run diverged from oracle")
	}
	if r.WallTime <= r2.WallTime {
		t.Logf("note: tight throttle not slower (%v vs %v) — acceptable at this scale", r.WallTime, r2.WallTime)
	}
}

// TestSamadiAckOverhead: Samadi GVT must move acknowledgement traffic over
// MPI (more messages than Mattern for the same workload) while committing
// the identical event stream.
func TestSamadiAckOverhead(t *testing.T) {
	cfg := testConfig(2, 2, 8, core.GVTSamadi, core.CommDedicated)
	r, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(2, 2, 8, core.GVTMattern, core.CommDedicated)
	r2, err := core.New(cfg2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.CommitChecksum != r2.CommitChecksum {
		t.Error("Samadi and Mattern committed different streams")
	}
	if r.MPIMessages <= r2.MPIMessages {
		t.Errorf("Samadi MPI messages (%d) not above Mattern (%d): acks missing?",
			r.MPIMessages, r2.MPIMessages)
	}
}

// TestOracleFuzz: randomized small configurations across all GVT
// algorithms must match the sequential oracle. This sweeps corners the
// fixed matrix misses (odd shapes, extreme percentages, odd intervals).
func TestOracleFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short")
	}
	prop := func(seed uint64, a, b, c, d, e, f uint8) bool {
		nodes := int(a%3) + 1
		workers := int(b%3) + 1
		lps := int(c%4) + 1
		remote := float64(d%30) / 100
		if nodes == 1 {
			remote = 0
		}
		regional := float64(e%60) / 100
		interval := int(f%6) + 2
		top := cluster.Topology{Nodes: nodes, WorkersPerNode: workers, LPsPerWorker: lps}
		model := phold.New(phold.Params{
			Topology: top,
			Base:     phold.Phase{RemotePct: remote, RegionalPct: regional, EPG: 800 + int(seed%2000)},
		})
		ref := seq.New(model, top.TotalLPs(), 15, seed).Run()
		for _, g := range allGVT() {
			cfg := core.Config{
				Topology: top, GVT: g, GVTInterval: interval,
				Comm: core.CommDedicated, EndTime: 15, Seed: seed, Model: model,
			}
			r, err := core.New(cfg).Run()
			if err != nil {
				t.Logf("%v shape=%dx%dx%d: %v", g, nodes, workers, lps, err)
				return false
			}
			if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
				t.Logf("%v shape=%dx%dx%d seed=%d interval=%d remote=%v regional=%v: diverged",
					g, nodes, workers, lps, seed, interval, remote, regional)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
