package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/fabric"
	"repro/internal/vtime"
)

// GVT safety invariant: a published GVT must never exceed the true minimum
// over every timestamp the simulation could still deliver — unprocessed
// pending events, mailbox deposits, stashed anti-messages, node outboxes,
// frames buffered inside the reliable transport, and packets in flight on
// the fabric. Every GVT algorithm here is correct only while it holds, so
// the engine verifies it after every round of every run: one walk over
// those structures per round, nothing per event.

// checkGVTInvariant panics if gvt exceeds the minimum observable timestamp.
// It runs in scheduler-callback context on the master node right after the
// round's GVT value is fixed, before workers resume from it — a consistent
// snapshot under the cooperative scheduler.
func (e *Engine) checkGVTInvariant(gvt float64) {
	min, where := e.minObservable()
	if gvt > min {
		panic(fmt.Sprintf("core: GVT invariant violated: published GVT %.9g exceeds %s = %.9g",
			gvt, where, min))
	}
}

// minObservable returns the minimum timestamp still observable anywhere in
// the cluster and a description of where it sits.
func (e *Engine) minObservable() (float64, string) {
	min := vtime.Inf
	where := "nothing observable"
	consider := func(t float64, loc string) {
		if t < min {
			min, where = t, loc
		}
	}
	for _, n := range e.nodes {
		for _, w := range n.workers {
			if ev := w.Pending.Peek(); ev != nil {
				consider(ev.Stamp.T, "worker pending event")
			}
			for _, ev := range w.Inbox.Items() {
				consider(ev.Stamp.T, "worker inbox")
			}
			for _, ev := range w.limbo {
				consider(ev.Stamp.T, "worker limbo (awaiting LP install)")
			}
			for _, m := range w.migIn.Items() {
				consider(m.minPayloadStamp(), "migration mailbox payload")
			}
			for _, l := range w.lps {
				for _, a := range l.pendingAnti {
					consider(a.Stamp.T, "stashed anti-message")
				}
			}
		}
		for _, ev := range n.Out.Items() {
			consider(ev.Stamp.T, "node outbox")
		}
		for _, m := range n.outMigs.Items() {
			consider(m.minPayloadStamp(), "node migration outbox payload")
		}
	}
	// Messages inside the transport: out-of-order reassembly buffers and
	// unacked frames that may be retransmitted.
	e.World.ForEachBuffered(func(payload any) {
		switch v := payload.(type) {
		case *event.Event:
			consider(v.Stamp.T, "transport buffer")
		case *migMsg:
			consider(v.minPayloadStamp(), "transport buffer (migration)")
		}
	})
	// Packets on the wire. Frames the receiver will discard (acks, fabric
	// duplicates of already-accepted frames) cannot re-enter the simulation
	// and must not pin the minimum.
	e.World.Fabric().ForEachInFlight(func(pkt fabric.Packet) {
		if !e.World.PacketWillDeliver(pkt) {
			return
		}
		switch v := pkt.Payload.(type) {
		case *event.Event:
			consider(v.Stamp.T, "in-flight MPI packet")
		case *migMsg:
			consider(v.minPayloadStamp(), "in-flight migration packet")
		}
	})
	return min, where
}
