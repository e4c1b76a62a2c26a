// Quickstart: implement a custom model (a ring of LPs passing tokens),
// run it on the simulated cluster under Time Warp with CA-GVT, and verify
// the optimistic execution against the sequential oracle.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/run"
	"repro/internal/seq"
)

// ringModel is one LP in a token ring: on receiving a token it spins a
// little, increments its hop counter and forwards the token to the next
// LP after a random delay.
type ringModel struct {
	self event.LPID
	hops int64 // rollback-protected state
}

func (m *ringModel) Init(ctx core.Context) {
	// Every fourth LP injects a token at a random start time.
	if int(m.self)%4 == 0 {
		ctx.Send(m.self, 0.5+ctx.RNG().Exp(1.0), 0, nil)
	}
}

func (m *ringModel) OnEvent(ctx core.Context, ev *event.Event) {
	ctx.Spin(2000) // ~2K FLOPs of "work" per hop
	m.hops++
	next := event.LPID((int(m.self) + 1) % ctx.NumLPs())
	ctx.Send(next, 0.2+ctx.RNG().Exp(0.8), 0, nil)
}

// Snapshot/Restore make the state rollback-safe: the engine snapshots
// before every event and restores on rollback.
func (m *ringModel) Snapshot() any { return m.hops }
func (m *ringModel) Restore(s any) { m.hops = s.(int64) }

func main() {
	// CA-GVT adapts sync/async per round; each node has one MPI thread.
	spec := run.Spec{GVT: "ca-gvt", GVTInterval: 25, Nodes: 2, WorkersPerNode: 4, LPsPerWorker: 8, EndTime: 50, Seed: 2024}
	model := func(lp event.LPID, total int) core.Model { return &ringModel{self: lp} }
	eng, err := run.New(spec, run.Attach{Model: model})
	if err != nil {
		log.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Time Warp run on the simulated cluster:")
	fmt.Println(r)

	// The committed event stream must be identical to a sequential run.
	ref := seq.New(model, spec.Topology().TotalLPs(), spec.EndTime, spec.Seed).Run()
	fmt.Printf("\nsequential oracle: %d events\n", ref.Processed)
	if ref.Checksum == r.CommitChecksum {
		fmt.Println("oracle check: OK — optimistic execution matched sequential execution exactly")
	} else {
		log.Fatal("oracle check FAILED")
	}
}
