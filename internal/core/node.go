package core

import (
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
	pool event.Pool

	// outAcks and outMigs queue Samadi acknowledgements and LP migrations
	// (balancer runs only) for the MPI thread, under the outbox lock.
	outAcks pe.Mailbox[ack]
	outMigs pe.Mailbox[*migMsg]

	// Barrier-GVT shared state (Algorithm 1). Slots are per worker.
	gvtBar   sim.Barrier // two-phase node barrier: enter
	gvtBar2  sim.Barrier // two-phase node barrier: exit
	gvtReq   bool        // a GVT round has been requested on this node
	msgCount []int64     // per-worker sent-received published at the barrier
	localMin []float64   // per-worker minimum unprocessed timestamp
	transit  int64       // cluster in-transit total published by the comm role
	nodeGVT  float64     // cluster GVT published by the comm role

	// Mattern/CA-GVT control message (Algorithm 2/3).
	cm nodeCM

	master    masterState // ring-master state (node 0 only)
	token     gvtToken    // node 0's ring token, refilled each phase (it is home by then)
	heldToken *gvtToken   // token waiting for a local condition
	// syncDone tracks the dedicated comm thread's participation in
	// CA-GVT's three per-round synchronization points.
	syncDone [3]bool
}

func newNode(eng *Engine, id int) *node {
	top, a := eng.cfg.Topology, eng.kept
	n := &a.nodes.Make(1)[0]
	n.eng, n.msgCount, n.localMin = eng, a.counts.Make(top.WorkersPerNode), a.localMin.Make(top.WorkersPerNode)
	cost := cluster.KNLDefaults()
	if eng.cfg.Faults != nil {
		if f, ok := eng.cfg.Faults.Straggler[id]; ok {
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
	n.gvtBar = sim.Barrier{Name: eng.Env.Name("gvt-%d", n.ID), N: participants}
	n.gvtBar2 = sim.Barrier{Name: eng.Env.Name("gvt2-%d", n.ID), N: participants}
	n.cm.init(n, top.WorkersPerNode)
	// The node's workers, LP lists, rollback buffers and idle passes are
	// one array each, as the null-message engine's, and its workers take
	// their LP records in contiguous runs of Engine.lps. The pool starts
	// out with room for an event per LP.
	wpn, per, stages := top.WorkersPerNode, top.LPsPerWorker, wsGVT+1
	n.pool.Reserve(wpn*per, &a.events)
	ws, lists, antis := a.ws.Make(wpn), a.lists.Make(wpn*per), a.antis.Make(wpn*per)
	lps := eng.lps[n.ID*wpn*per:]
	probes := a.probes.Make(wpn*stages + stGVTTail + 1) // and the comm thread's
	n.workers = a.wps.Make(wpn)
	for i := range ws {
		n.workers[i] = &ws[i]
		ws[i].init(n, lps[i*per:(i+1)*per], lists[i*per:(i+1)*per:(i+1)*per], antis[i*per:i*per:(i+1)*per], probes[i*stages:(i+1)*stages])
	}
	if eng.cfg.Comm == CommDedicated {
		eng.AddComm(&n.Node, n, n.commProbes(probes[wpn*stages:])...)
	}
	return n
}

// mailboxLock returns the lock of one of a worker's further mailboxes.
func (n *node) mailboxLock(kind string, idx int) *sim.Mutex {
	return &sim.Mutex{Name: n.eng.Env.Name(kind+"-%d/%d", n.ID, idx), HoldCost: n.Cost.RegionalLockHold}
}

// The stages of a comm pass, in the order a pass runs them. Idle passes
// are stepped through commProbes, which lists what each stage is when it
// finds nothing, Quiet answers for those only the engine can judge, and a
// pass can be resumed at any of them — by the dedicated MPI thread
// (pe.Node.CommLoop) or by a worker carrying the comm role, whose own pass
// has these stages in its middle (worker.Main).
const (
	stOutbox     = iota // remote events, outbox → wire
	stOutMigs           // queued LP migrations → wire (balancer runs)
	stOutAcks           // Samadi acknowledgements → wire
	stRecvEvents        // wire → worker inboxes
	stRecvMigs          // wire → migration mailboxes (balancer runs)
	stRecvAcks          // wire → ack mailboxes
	stGVT               // the GVT algorithm's comm role, from its top
	stRing              // Mattern/CA-GVT: the master or slave ring poll
	stGVTTail           // Mattern/CA-GVT: round cleanup
)

// commProbes writes the comm pass into pass (stGVTTail+1 long) as it is
// when nothing moves, stage for stage (the index of a probe is its st*
// constant), and returns it.
func (n *node) commProbes(pass []pe.Probe) []pe.Probe {
	pass[stOutbox] = pe.TakeProbe(&n.Out)
	pass[stOutAcks] = pe.TakeProbe(&n.outAcks)
	pass[stRecvEvents] = pe.RecvProbe(mpi.AnySource, tagEvents)
	pass[stRecvAcks] = pe.RecvProbe(mpi.AnySource, tagAcks)
	if n.eng.migEnabled {
		pass[stOutMigs] = pe.StableProbe()
		pass[stRecvMigs] = pe.RecvProbe(mpi.AnySource, tagMigrate)
	}
	pass[stGVT] = pe.StableProbe()
	if n.eng.ring {
		pass[stRing] = pe.RecvProbe(n.Rank.Prev(), tagToken).If()
		pass[stGVTTail] = pe.StableProbe()
	}
	return pass
}

// Quiet answers for the comm stages only the engine can judge (pe.Thread),
// by st* constant, for this instant; "not quiet" is always safe, since the
// pass is then handed back at that stage. The answers are stable: what
// they read of other threads' doing — the node CM's round state, gvtReq,
// outMigs — is followed by a pe.Node.Touch wherever it is written; the
// ring poll's condition reads only the comm role's state.
func (n *node) Quiet(stage int) bool {
	switch stage {
	case stOutMigs:
		return n.outMigs.Len() == 0
	case stGVT:
		// Under a token ring it would do nothing before the ring poll and
		// the ring poll would at most probe the ring: no sync point is due,
		// and the master or slave has nothing it could move without a token
		// arriving.
		cm := &n.cm
		switch {
		case !n.eng.ring:
			return !n.gvtReq
		case n.syncDue(0) || n.syncDue(1) || n.syncDue(2):
			return false
		case n.ID != 0:
			// A held token moves unless it is a white one still waiting for
			// its preconditions, which slavePoll puts straight back.
			tok := n.heldToken
			return tok == nil || tok.phase == tokWhite && !cm.allRed()
		case n.master == msIdle:
			return !cm.allRed() || n.eng.World.Size() == 1 && cm.whiteDelta != 0
		case n.master == msWaitContrib:
			return cm.contributed != cm.workers
		}
		return true // waiting for a token, or for cleanup
	case stRing: // the ring poll makes no TryRecvRing (asked once stGVT is quiet)
		if n.ID != 0 {
			return n.heldToken != nil
		}
		return n.master != msWaitA && n.master != msWaitB && n.master != msWaitC
	}
	return !n.cleanupDue() // stGVTTail
}

// Main is the dedicated MPI thread (pe.Thread).
func (n *node) Main(p *sim.Proc) { n.CommLoop(p, n) }

// Pass is one pass of the dedicated MPI thread, which exclusively
// services MPI sends, receives and the GVT algorithm's MPI duties (the
// paper's proposal), run from stage from: the pump, then the thread's
// part in the configured GVT algorithm — stGVT is all of it, and the later
// stages are where an idle pass can hand back inside a Mattern poll. (In
// combined/shared modes worker 0 carries the role: barrier rounds inline
// it, and the worker calls matternCommPoll itself.)
func (n *node) Pass(p *sim.Proc, from int) bool {
	worked := n.pumpFrom(p, from)
	switch {
	case n.eng.ring:
		return n.matternCommPoll(p, max(from, stGVT)) || worked
	case !n.gvtReq:
		return worked
	}
	n.commBarrierRound(p)
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
	routing := &n.eng.routing
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
			n.Touch() // the worker's wsMigs probe reads the box
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
	n.barrierWait(p, &n.gvtBar, w)
	if comm && global && n.eng.World.Size() > 1 {
		n.Rank.Barrier(p)
	}
	p.Advance(cost)
	n.barrierWait(p, &n.gvtBar2, w)
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
