package core_test

import (
	"testing"

	"repro/internal/cluster"
	core "repro/internal/core"
	"repro/internal/phold"
)

// Engine-level hot-path benchmarks. Each runs a complete simulation per
// iteration and reports host ns and allocations normalized per committed
// event. The comm-dominated workload is rollback-heavy — high remote
// traffic makes stragglers and annihilations common — so it exercises
// exactly the paths the event pool serves: Send, anti-message copies,
// fossil collection.

func benchConfig(workload string, gvt core.GVTKind) core.Config {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 4, LPsPerWorker: 16}
	base := phold.ComputationDominated()
	if workload == "comm" {
		base = phold.CommunicationDominated()
	}
	return core.Config{
		Topology:    top,
		GVT:         gvt,
		GVTInterval: 4,
		Comm:        core.CommDedicated,
		EndTime:     10,
		Seed:        1,
		Model:       phold.New(phold.Params{Topology: top, Base: base}),
	}
}

func benchEngine(b *testing.B, cfg core.Config) {
	b.ReportAllocs()
	var committed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.New(cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		committed += r.Workers.Committed
	}
	b.StopTimer()
	if committed > 0 {
		b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkRollbackHeavy: communication-dominated PHOLD, where remote
// stragglers force frequent rollbacks and anti-message traffic.
func BenchmarkRollbackHeavy(b *testing.B) {
	benchEngine(b, benchConfig("comm", core.GVTMattern))
}

// BenchmarkGVTRounds: computation-dominated PHOLD under the controlled
// asynchronous GVT algorithm — measures steady-state round cost with
// fossil collection recycling into the pool.
func BenchmarkGVTRounds(b *testing.B) {
	benchEngine(b, benchConfig("comp", core.GVTControlled))
}
