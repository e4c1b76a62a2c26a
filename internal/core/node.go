package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MPI tags used by the engine.
const (
	tagEvents  = mpi.TagUser + iota // remote event messages
	tagToken                        // Mattern/CA-GVT ring control message
	tagAcks                         // Samadi GVT acknowledgements
	tagMigrate                      // LP migration messages (load balancing)
)

// node models one cluster node: the shared base (rank, cost model,
// outbox), its worker threads, the node-level GVT state and (in dedicated
// mode) the MPI communication thread. Its cost model is the global one
// scaled by the fault plan's straggler factor when this node is a
// straggler.
type node struct {
	pe.Node
	eng     *Engine
	workers []*worker

	// pool recycles event objects for every thread of this node: Send
	// and anti-copies take from it, and an event goes back at the three
	// points where Time Warp provably retires it — annihilation (both
	// halves of the pair), fossil collection of a history entry and the
	// below-GVT anti-stash prune. No lock: the cooperative kernel runs one
	// goroutine at a time, so pool operations never race.
	pool *event.Pool

	// outAcks and outMigs queue Samadi acknowledgements and LP migrations
	// (balancer runs only) for the MPI thread, under the outbox lock.
	outAcks pe.Mailbox[ack]
	outMigs pe.Mailbox[*migMsg]

	// Barrier-GVT shared state (Algorithm 1). Slots are per worker.
	gvtBar   *sim.Barrier // two-phase node barrier: enter
	gvtBar2  *sim.Barrier // two-phase node barrier: exit
	gvtReq   bool         // a GVT round has been requested on this node
	msgCount []int64      // per-worker sent-received published at the barrier
	localMin []float64    // per-worker minimum unprocessed timestamp
	transit  int64        // cluster in-transit total published by the comm role
	nodeGVT  float64      // cluster GVT published by the comm role

	// Mattern/CA-GVT control message (Algorithm 2/3).
	cm nodeCM

	master    masterState // ring-master state (node 0 only)
	heldToken *gvtToken   // token waiting for a local condition

	// Ring-token liveness state. The master (node 0) stamps every token
	// lap with a fresh uid, keeps a copy for watchdog resends and tracks
	// when the ring last made progress; slaves memoize the contribution
	// they folded into each lap so a resent duplicate re-applies it
	// without touching live CM state.
	tokenSeq        uint64                // last uid issued (master only)
	lastSent        gvtToken              // copy of the last token sent (master only)
	lastProgress    sim.Time              // when the master last saw ring progress
	wdRestartsRound int                   // watchdog resends within the current round
	tokMemo         map[uint64]tokContrib // served laps by uid (slaves only)
	memoMax         uint64                // highest uid memoized (prune horizon)
	// syncDone tracks the dedicated comm thread's participation in
	// CA-GVT's three per-round synchronization points.
	syncDone [3]bool
}

func newNode(eng *Engine) *node {
	top := eng.cfg.Topology
	n := &node{
		eng:      eng,
		msgCount: make([]int64, top.WorkersPerNode),
		localMin: make([]float64, top.WorkersPerNode),
	}
	cost := cluster.KNLDefaults()
	if eng.cfg.Faults != nil {
		if f, ok := eng.cfg.Faults.Straggler[len(eng.nodes)]; ok {
			cost = cost.Scaled(f)
		}
	}
	eng.AddNode(&n.Node, cost)
	participants := top.WorkersPerNode
	if eng.cfg.Comm == CommDedicated {
		participants++
	}
	n.outAcks = pe.NewMailbox[ack](&n.OutMu, cost.RemoteEnqueue)
	n.outMigs = pe.NewMailbox[*migMsg](&n.OutMu, cost.RemoteEnqueue)
	n.pool = event.NewPool(eng.cfg.PoolDebug)
	n.gvtBar = sim.NewBarrier(fmt.Sprintf("gvt-%d", n.ID), participants)
	n.gvtBar2 = sim.NewBarrier(fmt.Sprintf("gvt2-%d", n.ID), participants)
	n.cm.init(n, top.WorkersPerNode)
	for wi := 0; wi < top.WorkersPerNode; wi++ {
		n.workers = append(n.workers, newWorker(eng, n))
	}
	if eng.cfg.Comm == CommDedicated {
		eng.AddComm(&n.Node, func(p *sim.Proc) { n.CommLoop(p, n.commPass) }, n.commProbes()...)
	}
	return n
}

// mailboxLock returns the lock of one of a worker's further mailboxes.
func (n *node) mailboxLock(kind string, idx int) *sim.Mutex {
	return &sim.Mutex{Name: fmt.Sprintf("%s-%d/%d", kind, n.ID, idx), HoldCost: n.Cost.RegionalLockHold}
}

// The stages of a comm pass, in the order a pass runs them. Idle passes
// are stepped through commProbes, which lists what each stage is when it
// finds nothing, and a pass can be resumed at any of them — by the
// dedicated MPI thread (pe.Node.CommLoop) or by a worker carrying the comm
// role, whose own pass has these stages in its middle (worker.run).
const (
	stOutbox     = iota // remote events, outbox → wire
	stOutMigs           // queued LP migrations → wire (balancer runs)
	stOutAcks           // Samadi acknowledgements → wire
	stRecvEvents        // wire → worker inboxes
	stRecvMigs          // wire → migration mailboxes (balancer runs)
	stRecvAcks          // wire → ack mailboxes
	stGVT               // the GVT algorithm's comm role, from its top
	stRing              // Mattern/CA-GVT: the master or slave ring poll
	stGVTTail           // Mattern/CA-GVT: watchdog and round cleanup
)

// commProbes is the comm pass as it is when nothing moves, stage for
// stage (the index of a probe is its st* constant).
func (n *node) commProbes() []pe.Probe {
	pass := make([]pe.Probe, stGVTTail+1)
	pass[stOutbox] = pe.TakeProbe(&n.Out)
	pass[stOutAcks] = pe.TakeProbe(&n.outAcks)
	pass[stRecvEvents] = pe.RecvProbe(mpi.AnySource, tagEvents)
	pass[stRecvAcks] = pe.RecvProbe(mpi.AnySource, tagAcks)
	if n.eng.migEnabled {
		pass[stOutMigs] = pe.QuietProbe(func() bool { return n.outMigs.Len() == 0 })
		pass[stRecvMigs] = pe.RecvProbe(mpi.AnySource, tagMigrate)
	}
	switch n.eng.cfg.GVT {
	case GVTBarrier, GVTSamadi:
		pass[stGVT] = pe.QuietProbe(func() bool { return !n.gvtReq })
	default:
		pass[stGVT] = pe.QuietProbe(n.matternQuiet)
		pass[stRing] = pe.RecvProbe(n.Rank.Prev(), tagToken).If(n.probesRing)
		pass[stGVTTail] = pe.QuietProbe(n.matternTailQuiet)
	}
	return pass
}

// commPass is one pass of the dedicated MPI thread, which exclusively
// services MPI sends, receives and the GVT algorithm's MPI duties (the
// paper's proposal), run from stage from: the pump, then the thread's
// part in the configured GVT algorithm — stGVT is all of it, and the later
// stages are where an idle pass can hand back inside a Mattern poll. (In
// combined/shared modes worker 0 carries the role: Barrier and Samadi
// rounds inline it, and the worker calls matternCommPoll itself.)
func (n *node) commPass(p *sim.Proc, from int) bool {
	worked := n.pumpFrom(p, from)
	switch gvt := n.eng.cfg.GVT; {
	case gvt == GVTMattern || gvt == GVTControlled:
		return n.matternCommPoll(p, max(from, stGVT)) || worked
	case !n.gvtReq:
		return worked
	case gvt == GVTBarrier:
		n.commBarrierRound(p)
	default:
		n.commSamadiRound(p)
	}
	return true
}

// pumpBudget bounds how many messages one pump call moves in each
// direction, so the comm thread interleaves GVT protocol duties with
// event forwarding even under backlog (as ROSS's MPI thread alternates
// between its service loops).
const pumpBudget = 32

// pumpFrom moves remote messages in both directions, from stage from on
// (stOutbox: all of it; from stGVT on: nothing): it drains the node's
// outbound queues onto the wire and routes arrived MPI messages into the
// target workers' mailboxes. It returns whether any message moved.
func (n *node) pumpFrom(p *sim.Proc, from int) bool {
	worked := false
	wpn := n.eng.cfg.Topology.WorkersPerNode
	routing := n.eng.routing
	switch from {
	case stOutbox:
		out, backlog := n.Out.Take(p, pumpBudget)
		for _, ev := range out {
			if dst := routing.Node(ev.Dst); dst != n.ID {
				n.Send(p, dst, tagEvents, ev.WireSize(), ev, backlog)
			} else {
				// The destination LP migrated onto this node while the event
				// sat in the outbox: short-circuit to the local mailbox (the
				// send/recv counters stay symmetric — the sender counted a
				// remote send, the drain will count the receive).
				n.workers[routing.Worker(ev.Dst)%wpn].Inbox.Deposit(p, ev)
			}
			worked = true
		}
		n.Out.Recycle(out)
		fallthrough
	case stOutMigs:
		// The len check is free of simulated cost, so balancer runs that
		// never migrate pay nothing here.
		if n.eng.migEnabled && n.outMigs.Len() > 0 {
			migs, _ := n.outMigs.Take(p, 0)
			for _, m := range migs {
				n.Send(p, m.dstNode, tagMigrate, m.wireSize(), m, 0)
				worked = true
			}
			n.outMigs.Recycle(migs)
		}
		fallthrough
	case stOutAcks:
		// Acknowledgements exist under Samadi GVT only, but the lock is paid
		// by every pump.
		acks, _ := n.outAcks.Take(p, pumpBudget)
		for _, a := range acks {
			n.Send(p, a.dstWorker/wpn, tagAcks, ackWire, a, 0)
			worked = true
		}
		n.outAcks.Recycle(acks)
		fallthrough
	case stRecvEvents:
		for i := 0; i < pumpBudget; i++ {
			m, ok := n.Rank.TryRecv(p, tagEvents)
			if !ok {
				break
			}
			ev := m.Payload.(*event.Event)
			if routing.Node(ev.Dst) != n.ID {
				// The destination LP migrated away while this event was in
				// flight: forward it toward the current owner. The hop is
				// transparent to GVT accounting — no worker counts a receive
				// here, so the message stays "in transit" end to end.
				n.TraceRecv(p, m, 0)
				n.remoteOut(p, ev)
			} else {
				w := n.workers[routing.Worker(ev.Dst)%wpn]
				w.Inbox.Deposit(p, ev)
				n.TraceRecv(p, m, w.Inbox.Len())
			}
			worked = true
		}
		fallthrough
	case stRecvMigs:
		for i := 0; n.eng.migEnabled && i < pumpBudget; i++ {
			m, ok := n.Rank.TryRecv(p, tagMigrate)
			if !ok {
				break
			}
			mg := m.Payload.(*migMsg)
			n.workers[mg.dstWorker].migIn.Deposit(p, mg)
			n.TraceRecv(p, m, 0)
			worked = true
		}
		fallthrough
	case stRecvAcks:
		for i := 0; i < pumpBudget; i++ {
			m, ok := n.Rank.TryRecv(p, tagAcks)
			if !ok {
				break
			}
			a := m.Payload.(ack)
			n.workers[a.dstWorker%wpn].ackIn.Deposit(p, a)
			n.TraceRecv(p, m, 0)
			worked = true
		}
	}
	return worked
}

// remoteOut hands ev to the MPI thread (worker side of the remote path).
func (n *node) remoteOut(p *sim.Proc, ev *event.Event) {
	n.Out.Deposit(p, ev)
	if h := n.eng.hOutboxDepth; h != nil {
		h.Observe(int64(n.Out.Len()))
	}
}

// syncPoint is one of CA-GVT's synchronization points (Algorithm 3 lines
// 4, 14, 30): all node participants meet at the first node barrier; when
// the point is global, the comm role crosses the MPI barrier while the
// rest wait at the second node barrier. The middle sync point of a round
// is node-local (global=false) — its cross-node alignment comes from the
// token protocol, which avoids a circular wait with the reduce token.
func (n *node) syncPoint(p *sim.Proc, comm, global bool, w *worker) {
	cost := n.Cost.BarrierEntry
	p.Advance(cost)
	n.barrierWait(p, n.gvtBar, w)
	if comm && global && n.eng.World.Size() > 1 {
		n.Rank.Barrier(p)
	}
	p.Advance(cost)
	n.barrierWait(p, n.gvtBar2, w)
}

// barrierWait waits at b. For a worker (w non-nil; the dedicated comm
// thread passes nil) the wait is attributed to it and bracketed by the
// barrier phase in the trace.
func (n *node) barrierWait(p *sim.Proc, b *sim.Barrier, w *worker) {
	if w == nil {
		b.Wait(p)
		return
	}
	w.SetPhase(trace.PhaseBarrier)
	w.BarrierWait(b)
	// Back inside GVT protocol steps once released.
	w.SetPhase(trace.PhaseGVT)
}
