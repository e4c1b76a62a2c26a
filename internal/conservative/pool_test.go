package conservative

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/seq"
	"repro/internal/stats"
)

// poisoned swaps eng's node pools, still empty before Run, for debug ones:
// every event freed is poisoned and the poison is checked when the event
// is handed out again, so a write through a stale pointer panics. A test
// seam only; no Config field asks for it.
func poisoned(eng *Engine) *Engine {
	for _, n := range eng.nodes {
		n.pool = *event.NewPool(true)
	}
	return eng
}

// TestPoolPoisonParity: with every node pool poisoning what it takes back,
// both protocols on every model commit the sequential oracle's stream, and
// the pools did recycle. An event freed while anything still reads or
// writes it — before its model ran, before its commit, before its sends
// were routed — shows as a poison panic or a different checksum.
func TestPoolPoisonParity(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
	const end, seed = 6.0, 7
	for _, m := range testModels() {
		ref := seq.New(m.factory(top), top.TotalLPs(), end, seed).Run()
		for _, sync := range []SyncKind{SyncNullMsg, SyncWindow} {
			t.Run(fmt.Sprintf("%s/%s", m.name, sync), func(t *testing.T) {
				eng := poisoned(New(Config{
					Topology: top, Sync: sync, Lookahead: m.lookahead,
					EndTime: end, Seed: seed, Model: m.factory(top),
				}))
				var r *stats.Run
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("run panicked: %v", p)
						}
					}()
					var err error
					if r, err = eng.Run(); err != nil {
						t.Fatal(err)
					}
				}()
				if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
					t.Errorf("committed %d events checksum %016x, oracle %d / %016x",
						r.Workers.Committed, r.CommitChecksum, ref.Processed, ref.Checksum)
				}
				if r.PoolRecycled == 0 || r.PoolNews == 0 {
					t.Errorf("pools: %d new, %d recycled; want both positive", r.PoolNews, r.PoolRecycled)
				}
			})
		}
	}
}
