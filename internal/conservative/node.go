package conservative

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/mpi"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/vtime"
)

// tagEvents is the single MPI tag shared by event and null-message
// traffic. Sharing one tag is load-bearing: the fabric is FIFO per
// (src, dst) link and the MPI stash preserves arrival order only within
// a tag, so a null message consumed on the same tag proves every event
// the sender put on the wire before it has already been delivered —
// exactly the guarantee the EOT promise semantics need.
const tagEvents = mpi.TagUser

// nullMsg is a CMB null message: a promise that the sending node will
// never again send an event with a stamp below EOT. It travels by pointer
// and is recycled on receipt (Engine.newNull), so a promise boxes nothing.
type nullMsg struct {
	EOT  vtime.Time
	next *nullMsg // the free list's link
}

const nullsPerLink = 4 // null messages per link the first array of them holds

// nullWireSize approximates a null message's wire footprint (header plus
// one timestamp) for the fabric's bandwidth term.
const nullWireSize = 24

const pumpBudget = 32

// node hosts a group of workers, their shared MPI rank and the dedicated
// comm role that services it.
type node struct {
	pe.Node
	eng     *Engine
	workers []*worker
	pool    event.Pool // its workers' sends draw from it; processOne frees into it

	// evSent/evRecv count event messages (not nulls) over MPI, for the
	// window protocol's transit-drain allreduce.
	evSent, evRecv int64

	// Window-sync state.
	bar1, bar2 sim.Barrier
	transit    int64
	floors     []float64 // per local worker, published at the sync point
	horizon    vtime.Time

	// Null-message state.
	chanIn  []vtime.Time // [peer node] highest EOT promise received
	lastEOT []vtime.Time // [peer node] highest EOT promise sent

	// The idle predicates (worker.Quiet, node.Quiet) are stable
	// (pe.StableProbe): every change to what they read that can turn one
	// false — a floor raised (worker.moved), the least of chanIn raised
	// (raised), a worker's exit — is a Touch, which re-asks the node's
	// parked threads. They read the floors and chanIn through minima and
	// thresholds that a lower floor, a raise of an entry above chanIn's
	// least or an outbox item only keeps or lowers, so those changes need
	// no signal. A StableProbe may err toward false only, so a missing
	// Touch is a bug.
}

func newNode(eng *Engine) *node {
	top := &eng.cfg.Topology
	n := &node{eng: eng}
	eng.AddNode(&n.Node, cluster.KNLDefaults())
	n.pool.Reserve(top.WorkersPerNode) // one event in hand per worker, between its Send and its free
	parts := top.WorkersPerNode + 1    // workers + the comm role
	n.bar1 = sim.Barrier{Name: eng.Env.Name("csync-%d", n.ID), N: parts}
	n.bar2 = sim.Barrier{Name: eng.Env.Name("csync2-%d", n.ID), N: parts}
	times := make([]vtime.Time, top.WorkersPerNode+2*top.Nodes)
	n.floors, n.chanIn, n.lastEOT = times[:top.WorkersPerNode], times[top.WorkersPerNode:][:top.Nodes], times[top.WorkersPerNode+top.Nodes:]
	n.chanIn[n.ID] = vtime.Inf // self imposes no inbound bound
	// The node's workers, LP records, last stamps and send queues are one
	// array each. The stamps stay apart: an array without pointers carries
	// no allocation header (DESIGN.md "Allocations per commit", Set-up in
	// slabs).
	per := top.LPsPerWorker
	lps, last := make([]pe.LP, top.WorkersPerNode*per), make([]vtime.Stamp, top.WorkersPerNode*per)
	ws, sends := make([]worker, top.WorkersPerNode), make([]*event.Event, top.WorkersPerNode*sendCap)
	n.workers = make([]*worker, top.WorkersPerNode)
	for i := range n.workers {
		n.workers[i] = &ws[i]
		ws[i].init(n, lps[i*per:(i+1)*per], last[i*per:(i+1)*per], sends[i*sendCap:i*sendCap:(i+1)*sendCap])
	}
	if eng.cfg.Sync == SyncWindow {
		eng.AddComm(&n.Node, n)
	} else {
		eng.AddComm(&n.Node, n, pe.TakeProbe(&n.Out), pe.RecvProbe(mpi.AnySource, tagEvents), pe.StableProbe())
	}
	return n
}

// flushEvents sends up to budget outbox events over MPI (budget <= 0
// means all). Returns whether anything was sent.
func (n *node) flushEvents(p *sim.Proc, budget int) bool {
	sent := false
	for {
		batch, backlog := n.Out.Take(p, budget)
		if len(batch) == 0 {
			return sent
		}
		for _, ev := range batch {
			n.Send(p, n.eng.cfg.Topology.NodeOf(ev.Dst), tagEvents, ev.WireSize(), ev, backlog)
			n.evSent++
		}
		n.Out.Recycle(batch)
		sent = true
		if budget > 0 {
			return sent
		}
	}
}

// raised follows a raise of chanIn[src] from old: every safe bound and
// the node's promise read chanIn through its least entry, so the parked
// threads are asked again only if old was that least alone.
func (n *node) raised(src int, old vtime.Time) {
	for s, c := range n.chanIn {
		if s != src && c <= old {
			return
		}
	}
	n.Touch()
}

// recvInbound consumes up to budget inbound messages (budget <= 0 means
// all): events are deposited with their destination worker, null
// messages ratchet the per-peer promise channel.
func (n *node) recvInbound(p *sim.Proc, budget int) bool {
	got := false
	for i := 0; budget <= 0 || i < budget; i++ {
		m, ok := n.Rank.TryRecv(p, tagEvents)
		if !ok {
			break
		}
		got = true
		switch pl := m.Payload.(type) {
		case *event.Event:
			n.evRecv++
			_, wi := n.eng.cfg.Topology.WorkerOf(pl.Dst)
			w := n.workers[wi]
			w.deposit(p, pl)
			n.TraceRecv(p, m, w.Inbox.Len())
		case *nullMsg:
			if old := n.chanIn[m.Src]; pl.EOT > old {
				n.chanIn[m.Src] = pl.EOT
				n.raised(m.Src, old)
			}
			pl.next, n.eng.nulls = n.eng.nulls, pl
			n.TraceRecv(p, m, 0)
		default:
			panic(fmt.Sprintf("conservative: node %d received unexpected payload %T", n.ID, m.Payload))
		}
	}
	return got
}
