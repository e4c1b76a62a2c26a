package conservative

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/phold"
)

// BenchmarkBlocked: stage 1 of an idle null-message worker's pass on the
// cons-nullmsg shape (4 nodes × 4 workers × 16 LPs), one evaluation per
// op, worked out afresh as every pass that is not skipped works it out:
// the least of four promise channels, below which nothing is runnable, so
// the peers' floors stay unread. `make microbench` and CI run it beside
// pe's BenchmarkIdlePass, whose StableProbe this is.
func BenchmarkBlocked(b *testing.B) {
	top := cluster.Topology{Nodes: 4, WorkersPerNode: 4, LPsPerWorker: 16}
	eng := New(Config{
		Topology: top, Sync: SyncNullMsg, Lookahead: 0.1, EndTime: 8, Seed: 1,
		Model: phold.New(phold.Params{Topology: top, Base: phold.ComputationDominated()}),
	})
	// Seeded and not yet run: no promise has arrived, so the bound is 0.
	w := eng.nodes[0].workers[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.blocked() {
			b.Fatal("a worker with no promise from any peer is not blocked")
		}
	}
}
