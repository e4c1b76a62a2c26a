// LP→worker routing for dynamic load balancing. The static Topology maps
// every LP to its home worker arithmetically; once the balancer migrates
// an LP, that mapping becomes state. Routing is the cluster-wide routing
// table: it starts as the static placement (with a zero-allocation fast
// path, so balancer-off runs pay nothing) and is updated atomically — in
// one step, at the migration pack point — when an LP moves, so in-flight
// events addressed to the old home can be forwarded to the new one.
package cluster

import "repro/internal/event"

// Routing maps each LP to the global index of the worker currently
// hosting it. It is not internally locked: the Time Warp engine runs on a
// deterministic cooperative kernel, and all updates happen at GVT commit
// points where the updater is the only runnable process touching it.
type Routing struct {
	top  Topology
	home []int32 // global worker per LP; nil until the first migration
}

// NewRouting returns the static placement for top.
func NewRouting(top Topology) *Routing { return &Routing{top: top} }

// Worker returns the global worker index currently hosting lp.
func (r *Routing) Worker(lp event.LPID) int {
	if r.home == nil {
		return int(lp) / r.top.LPsPerWorker
	}
	return int(r.home[lp])
}

// Node returns the node currently hosting lp.
func (r *Routing) Node(lp event.LPID) int {
	return r.Worker(lp) / r.top.WorkersPerNode
}

// Move reroutes lp to the given global worker. The table is shared by all
// simulated nodes (the cluster is simulated in one address space), so the
// update is atomic cluster-wide: every send issued after Move returns is
// addressed to the new home.
func (r *Routing) Move(lp event.LPID, gworker int) {
	if r.home == nil {
		r.home = make([]int32, r.top.TotalLPs())
		for i := range r.home {
			r.home[i] = int32(i / r.top.LPsPerWorker)
		}
	}
	r.home[lp] = int32(gworker)
}

// ClassFrom returns the locality class of a message sent by the worker
// with global index gw to dst, under the current routing. It mirrors
// Topology.Class but keys the source side on where the message actually
// is (the sending or forwarding worker) rather than the sender LP's
// static home. A self-send (src == dst) is Local exactly when the LP is
// hosted on gw — which is always, except while the event is being
// forwarded after a migration.
func (r *Routing) ClassFrom(gw int, dst event.LPID) event.Class {
	dw := r.Worker(dst)
	if dw == gw {
		return event.Local
	}
	if dw/r.top.WorkersPerNode == gw/r.top.WorkersPerNode {
		return event.Regional
	}
	return event.Remote
}
