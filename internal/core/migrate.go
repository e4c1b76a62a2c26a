package core

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// LP migration (dynamic load balancing).
//
// At every completed GVT round the engine snapshots per-node committed
// telemetry and asks the configured balance.Policy for moves; each move
// is executed by the owning worker at the tail of its next applyGVT —
// the GVT commit point, the only moment where everything below GVT has
// been fossil-collected and the LP's surviving state is exactly its
// committed prefix.
//
// Packing an LP first rolls back its uncommitted suffix (a normal Time
// Warp rollback: anti-messages cancel its speculative sends), so the
// shipped snapshot is pure committed state. The message carries the
// model snapshot, RNG stream state, stamp sequence counter, commit
// checksum, the LP's pending events and stashed anti-messages. The
// cluster-wide routing table is updated atomically at pack time, so
// every send issued afterwards is addressed to the new home; events
// already in flight toward the old home are forwarded hop-by-hop (node
// pump re-enqueues toward the current owner; a worker that drained one
// re-routes it as a fresh send).
//
// GVT safety: a migration message is counted exactly like a remote
// event message — the sender bumps msgSent and the epoch-colored send
// counter, the installer bumps the receive side, and under Samadi the
// sender covers it via its unacked set until the installer acks. The
// payload events therefore stay observable to every GVT algorithm for
// the whole flight, and events arriving for a not-yet-installed LP park
// in the destination worker's limbo, which localMin includes.

// migOrder is one planned migration, parked on the owning worker until
// its next applyGVT.
type migOrder struct {
	lp        event.LPID
	dstNode   int
	dstWorker int // index within dstNode
}

// migMsg is the wire representation of a migrating LP.
type migMsg struct {
	lp        event.LPID
	dstNode   int
	dstWorker int

	snap       any
	rngState   rng.State
	seq        uint64
	checksum   stats.Checksum
	committed  int64 // cumulative per-LP committed count (heat continuity)
	commitMark int64

	events []*event.Event // pending events, stamp order
	antis  []*event.Event // stashed anti-messages (>= GVT)

	color event.Color // sender epoch (mod 4) for Mattern accounting
	ackID uint64      // Samadi coverage; 0 outside Samadi
}

// migWireBase approximates the serialized size of everything except the
// carried events: model snapshot, RNG state, counters, routing update.
const migWireBase = 96

func (m *migMsg) wireSize() int {
	sz := migWireBase
	for _, ev := range m.events {
		sz += ev.WireSize()
	}
	for _, a := range m.antis {
		sz += a.WireSize()
	}
	return sz
}

// minPayloadStamp returns the smallest stamp the message could still
// inject into the simulation, or +Inf for an eventless migration.
func (m *migMsg) minPayloadStamp() float64 {
	min := vtime.Inf
	if len(m.events) > 0 { // events are stamp-sorted
		min = m.events[0].Stamp.T
	}
	for _, a := range m.antis {
		if a.Stamp.T < min {
			min = a.Stamp.T
		}
	}
	return min
}

// planBalance runs the policy against this round's committed telemetry
// and parks the resulting orders on the owning workers. Called from
// onRoundComplete (scheduler-callback context: a consistent snapshot,
// before any worker resumes from the round).
func (e *Engine) planBalance(gvt float64) {
	if e.balancer == nil || gvt > float64(e.cfg.EndTime) {
		return
	}
	top := e.cfg.Topology
	nodeStats := make([]balance.NodeStats, len(e.nodes))
	lpLoads := make([]balance.LPLoad, 0, top.TotalLPs())
	for ni, nd := range e.nodes {
		ns := balance.NodeStats{Node: ni, MinLVT: vtime.Inf, CostFactor: e.balanceFactors[ni]}
		for _, w := range nd.workers {
			ns.Committed += w.St.Committed
			ns.RolledBack += w.St.RolledBack
			if lm := w.localMin(); lm < ns.MinLVT {
				ns.MinLVT = lm
			}
			ns.LPs += len(w.lps)
			for _, l := range w.lps {
				lpLoads = append(lpLoads, balance.LPLoad{LP: l.ID, Node: ni, Heat: l.committed - l.commitMark})
				l.commitMark = l.committed
			}
		}
		ns.CommittedDelta = ns.Committed - e.prevCommitted[ni]
		ns.RolledBackDelta = ns.RolledBack - e.prevRolled[ni]
		e.prevCommitted[ni] = ns.Committed
		e.prevRolled[ni] = ns.RolledBack
		if ns.MinLVT >= vtime.Inf {
			ns.Lag = vtime.Inf
		} else {
			ns.Lag = ns.MinLVT - gvt
		}
		nodeStats[ni] = ns
	}
	moves := e.balancer.Decide(e.Rounds, gvt, nodeStats, lpLoads)
	if len(moves) == 0 {
		return
	}
	// Resolve each accepted move to a destination worker: fewest LPs
	// (counting installs already assigned this plan), lowest index wins.
	assigned := make(map[int]int)
	for _, mv := range moves {
		if int(mv.LP) >= top.TotalLPs() || e.migrating[mv.LP] {
			continue
		}
		if mv.To < 0 || mv.To >= len(e.nodes) || mv.To == mv.From {
			continue
		}
		if e.routing.Node(mv.LP) != mv.From {
			continue
		}
		gw := e.routing.Worker(mv.LP)
		sw := e.nodes[gw/top.WorkersPerNode].workers[gw%top.WorkersPerNode]
		if sw.byID[mv.LP] == nil {
			continue
		}
		dn := e.nodes[mv.To]
		best, bestLoad := 0, int(^uint(0)>>1)
		for wi, w := range dn.workers {
			if load := len(w.lps) + assigned[w.Gidx]; load < bestLoad {
				best, bestLoad = wi, load
			}
		}
		assigned[dn.workers[best].Gidx]++
		sw.migOut = append(sw.migOut, migOrder{lp: mv.LP, dstNode: mv.To, dstWorker: best})
		e.migrating[mv.LP] = true
	}
}

// executeMigrations packs and ships this worker's planned migrations.
// Called at the tail of applyGVT, with g the just-installed GVT.
func (w *worker) executeMigrations(g float64) {
	orders := w.migOut
	w.migOut = nil
	for _, o := range orders {
		if l := w.byID[o.lp]; l != nil {
			w.migrateOut(l, g, o)
		} else {
			delete(w.eng.migrating, o.lp)
		}
	}
}

// migrateOut packs l at the commit point g and ships it toward its new
// home. The routing table flips inside this call — atomically, since the
// cooperative kernel runs no other process during it.
func (w *worker) migrateOut(l *lp, g float64, o migOrder) {
	eng := w.eng
	cfg := &eng.cfg
	// Undo the uncommitted suffix (every history entry stamped >= g): a
	// regular rollback that re-enqueues the undone events (extracted
	// below) and anti-messages their speculative sends.
	w.rollback(l, vtime.Stamp{T: g}, false)

	events := w.Pending.RemoveFor(l.ID)
	antis := l.pendingAnti
	l.pendingAnti = nil

	m := &migMsg{
		lp: l.ID, dstNode: o.dstNode, dstWorker: o.dstWorker,
		snap:      l.Model.Snapshot(),
		rngState:  l.RNG.Save(),
		seq:       l.Seq,
		checksum:  l.Checksum,
		committed: l.committed, commitMark: l.commitMark,
		events: events, antis: antis,
	}
	// Detach the LP from this worker, then reroute: from this instant
	// every new send targets the destination worker.
	w.removeLP(l.ID)
	gw := o.dstNode*cfg.Topology.WorkersPerNode + o.dstWorker
	eng.routing.Move(l.ID, gw)
	eng.migrations++
	eng.migratedEvents += int64(len(events))

	// GVT accounting: one colored cross-node message, covered from pack
	// to install.
	m.color = event.Color(w.epoch & 3)
	w.msgSent++
	w.sentC[w.epoch&3]++
	if eng.samadiEnabled() {
		m.ackID = w.unacked.add(uint64(w.Gidx)<<ackWorkerShift, m.minPayloadStamp())
	}
	if min := m.minPayloadStamp(); w.mstate != wIdle && min < w.minRed {
		w.minRed = min
	}

	cost := &w.node.Cost
	w.Proc.Advance(cost.MigratePack + sim.Time(len(events)+len(antis))*cost.MigratePerEvent)
	if t := cfg.Trace; t != nil {
		t.Migration(trace.Migration{
			LP: uint32(l.ID), SrcNode: uint16(w.node.ID), DstNode: uint16(o.dstNode),
			Round: eng.Rounds, Events: uint32(len(events)), AtNanos: int64(w.Proc.Now()),
		})
	}
	w.node.outMigs.Deposit(w.Proc, m)
}

// removeLP detaches an LP from this worker, preserving slice order (the
// order collect, applyGVT and telemetry iterate in).
func (w *worker) removeLP(id event.LPID) {
	delete(w.byID, id)
	for i, l := range w.lps {
		if l.ID == id {
			w.lps = append(w.lps[:i], w.lps[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("core: removeLP: LP %d not on worker %d/%d", id, w.node.ID, w.Idx))
}

// drainMigrations installs every arrived migration. Callers gate on
// eng.migEnabled; the len check is free of simulated cost so
// balancer-enabled runs that never migrate stay on the fast path.
func (w *worker) drainMigrations() bool {
	if w.migIn.Len() == 0 {
		return false
	}
	batch, _ := w.migIn.Take(w.Proc, 0)
	for _, m := range batch {
		w.installMigration(m)
	}
	w.migIn.Recycle(batch)
	return true
}

// installMigration rebuilds the LP at its new home: fresh model instance
// restored from the shipped snapshot, RNG/sequence/checksum state carried
// over, pending events re-enqueued, then any limbo arrivals delivered in
// arrival order.
func (w *worker) installMigration(m *migMsg) {
	eng := w.eng
	cfg := &eng.cfg
	// Receive-side GVT accounting, mirroring the pack side.
	w.msgRecv++
	w.recvC[uint8(m.color)&3]++
	if eng.samadiEnabled() && m.ackID != 0 {
		w.sendAckTo(m.ackID)
	}
	cost := &w.node.Cost
	w.Proc.Advance(cost.MigrateInstall + sim.Time(len(m.events)+len(m.antis))*cost.MigratePerEvent)

	l := &lp{LP: pe.LP{
		ID: m.lp, Model: cfg.Model(m.lp, cfg.Topology.TotalLPs()), RNG: rng.New(0),
		Seq: m.seq, Checksum: m.checksum,
	}}
	l.Model.Restore(m.snap)
	l.RNG.Restore(m.rngState)
	eng.Host(&l.LP)
	l.committed = m.committed
	l.commitMark = m.commitMark
	l.pendingAnti = m.antis
	w.lps = append(w.lps, l)
	w.byID[l.ID] = l
	for _, ev := range m.events {
		w.Pending.Push(ev)
	}
	delete(eng.migrating, m.lp)

	// Events that arrived ahead of the LP: deliver in arrival order.
	if len(w.limbo) > 0 {
		var mine []*event.Event
		keep := w.limbo[:0]
		for _, ev := range w.limbo {
			if ev.Dst == m.lp {
				mine = append(mine, ev)
			} else {
				keep = append(keep, ev)
			}
		}
		for i := len(keep); i < len(w.limbo); i++ {
			w.limbo[i] = nil
		}
		w.limbo = keep
		for _, ev := range mine {
			w.deliver(ev)
		}
	}
}
