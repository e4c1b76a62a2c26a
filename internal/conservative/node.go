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
	EOT vtime.Time
}

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
	pool    *event.Pool // its workers' sends draw from it; processOne frees into it

	// evSent/evRecv count event messages (not nulls) over MPI, for the
	// window protocol's transit-drain allreduce.
	evSent, evRecv int64

	// Window-sync state.
	bar1, bar2 *sim.Barrier
	transit    int64
	floors     []float64 // per local worker, published at the sync point
	horizon    vtime.Time

	// Null-message state.
	chanIn  []vtime.Time // [peer node] highest EOT promise received
	lastEOT []vtime.Time // [peer node] highest EOT promise sent

	// ver counts the changes to what the idle predicates (worker.blocked,
	// nullsQuiet) read: a worker's floor or pending queue, chanIn, the
	// outbox, a worker's exit. One that found its thread idle at a version
	// answers from memory while the version stands. A QuietProbe may err
	// toward false only, so every such change must touch.
	ver     uint64
	quietAt uint64 // the version at which nullsQuiet last found nothing to send
}

func (n *node) touch() { n.ver++ }

func newNode(eng *Engine) *node {
	top := &eng.cfg.Topology
	n := &node{eng: eng, pool: event.NewPool(false), ver: 1}
	eng.AddNode(&n.Node, cluster.KNLDefaults())
	parts := top.WorkersPerNode + 1 // workers + the comm role
	n.bar1 = sim.NewBarrier(fmt.Sprintf("csync-%d", n.ID), parts)
	n.bar2 = sim.NewBarrier(fmt.Sprintf("csync2-%d", n.ID), parts)
	n.floors = make([]float64, top.WorkersPerNode)
	n.chanIn = make([]vtime.Time, top.Nodes)
	n.lastEOT = make([]vtime.Time, top.Nodes)
	n.chanIn[n.ID] = vtime.Inf // self imposes no inbound bound
	for i := 0; i < top.WorkersPerNode; i++ {
		n.workers = append(n.workers, newWorker(n))
	}
	if eng.cfg.Sync == SyncWindow {
		eng.AddComm(&n.Node, n.commWindow)
	} else {
		eng.AddComm(&n.Node, n.commNullmsg,
			pe.TakeProbe(&n.Out), pe.RecvProbe(mpi.AnySource, tagEvents), pe.QuietProbe(n.nullsQuiet))
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
		n.touch()
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
			if pl.EOT > n.chanIn[m.Src] {
				n.chanIn[m.Src] = pl.EOT
				n.touch()
			}
			n.eng.nulls = append(n.eng.nulls, pl)
			n.TraceRecv(p, m, 0)
		default:
			panic(fmt.Sprintf("conservative: node %d received unexpected payload %T", n.ID, m.Payload))
		}
	}
	return got
}
