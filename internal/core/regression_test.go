package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
)

// debugModel is a minimal PHOLD-like model defined inside the package so
// white-count internals can be audited without an import cycle.
type debugModel struct{ self event.LPID }

func (m *debugModel) Init(ctx Context) { ctx.Send(m.self, 0.1+ctx.RNG().Exp(1), 0, nil) }

var debugTop = cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8}

func (m *debugModel) OnEvent(ctx Context, _ *event.Event) {
	top := debugTop
	u := ctx.RNG().Float64()
	dst := m.self
	switch {
	case u < 0.2:
		myNode := top.NodeOf(m.self)
		n := ctx.RNG().Intn(top.Nodes - 1)
		if n >= myNode {
			n++
		}
		perNode := top.WorkersPerNode * top.LPsPerWorker
		dst = event.LPID(n*perNode + ctx.RNG().Intn(perNode))
	case u < 0.8:
		myNode, myWorker := top.WorkerOf(m.self)
		w := ctx.RNG().Intn(top.WorkersPerNode - 1)
		if w >= myWorker {
			w++
		}
		dst = top.FirstLP(myNode, w) + event.LPID(ctx.RNG().Intn(top.LPsPerWorker))
	}
	d := 0.1 + ctx.RNG().Exp(1)
	ctx.Spin(1500)
	ctx.Send(dst, d, 0, nil)
}
func (m *debugModel) Snapshot() any { return nil }
func (m *debugModel) Restore(any)   {}

// TestWhiteTokenRoundOverlap is a regression test for the round-overlap
// race where the master started the next round's white token before a
// slave node reset its control message, collecting a stale delta (it
// manifested as a negative in-flight white count).
func TestWhiteTokenRoundOverlap(t *testing.T) {
	top := debugTop
	cfg := Config{
		Topology: top, GVT: GVTMattern, GVTInterval: 3,
		Comm: CommDedicated, EndTime: 15, Seed: 7,
		Model: func(lp event.LPID, total int) Model { return &debugModel{self: lp} },
	}
	eng := New(cfg)
	defer func() {
		if r := recover(); r != nil {
			fmt.Println("PANIC:", r)
			for _, nd := range eng.nodes {
				fmt.Printf("node %d: cm.phase=%d red=%d delta=%d contributed=%d acked=%d master=%d\n",
					nd.ID, nd.cm.phase, nd.cm.redCount, nd.cm.whiteDelta, nd.cm.contributed, nd.cm.acked, nd.master)
				for _, w := range nd.workers {
					fmt.Printf("  w%d/%d: epoch=%d state=%d sC=%v rC=%v inbox=%d\n",
						nd.ID, w.Idx, w.epoch, w.mstate, w.sentC, w.recvC, w.Inbox.Len())
				}
			}
			t.Fatal("invariant violated")
		}
	}()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
