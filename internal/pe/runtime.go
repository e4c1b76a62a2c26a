package pe

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/eventq"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Config is what the runtime needs of an engine's configuration.
type Config struct {
	Topology  cluster.Topology
	Seed      uint64
	QueueKind string
	Model     ModelFactory
	Trace     *trace.Writer     // nil: no tracing
	Metrics   *metrics.Recorder // nil: no sampling
}

// mpiCosts is the CPU side of the simulated machine's MPI, which every
// run is on: the paper's KNL nodes on 10 GbE (fabric.EthernetDefaults; the
// engines give their nodes cluster.KNLDefaults). Nothing configures it.
var mpiCosts = mpi.DefaultCosts()

// Runtime is one run's skeleton: the simulated machine and everything on
// it in construction order. An engine embeds it, which also gives the
// engine its Run and Cancel.
type Runtime struct {
	Env   *sim.Env
	World *mpi.World

	// Rounds and SyncRounds count RecordRound calls.
	Rounds, SyncRounds int64

	// Views is the per-worker row (global index order, reused across
	// rounds) an engine fills before RecordRound.
	Views []View

	// LiteralIdle is for tests only; no Config, Spec or flag sets it. It
	// makes every thread run its idle passes itself, as the literal loop —
	// Advance(Cost.IdlePoll), the next pass from stage 0 — the reference
	// the stepped passes must equal in everything but process switches.
	LiteralIdle bool

	cfg       Config
	streams   *rng.Sequence
	finish    func(*stats.Run)
	nodes     int
	workers   []*Worker // global index order
	lps       []*LP     // the live instance of each LP, by id
	threads   []thread  // spawn order
	disparity stats.Disparity
	lvts      []float64
}

type thread struct {
	name string
	body func(*sim.Proc)
}

// Init builds the environment and the MPI world. finish completes the
// statistics Run returns with what only the engine counts. The engine
// then adds its nodes, workers, LPs and threads in global order and calls
// Seed.
func (rt *Runtime) Init(c Config, finish func(*stats.Run)) {
	rt.Env = sim.NewEnv()
	rt.Env.LivelockLimit = 500_000_000
	rt.World = mpi.NewWorld(rt.Env, c.Topology.Nodes, fabric.EthernetDefaults(), mpiCosts)
	rt.cfg, rt.finish = c, finish
	if c.Metrics != nil {
		c.Metrics.Init(c.Topology.TotalWorkers())
	}
	rt.workers = make([]*Worker, 0, c.Topology.TotalWorkers())
	rt.lps = make([]*LP, 0, c.Topology.TotalLPs())
	// LPs are added in global id order, so one substream sequence hands
	// every LP the stream NewAt(seed, id) in O(1) jumps each.
	rt.streams = rng.NewSequence(c.Seed)
}

// Node is the base of one cluster node: its MPI rank, its CPU cost model
// and the "global shared data structure" (paper §4) worker threads write
// remote messages into for the MPI thread to send.
type Node struct {
	ID   int
	Cost cluster.CostModel // every CPU charge on this node's threads
	Rank *mpi.Rank

	OutMu sim.Mutex // guards Out and any further outbound queue
	Out   Mailbox[*event.Event]

	// WorkersExited counts this node's workers whose main loop returned.
	WorkersExited int

	rt   *Runtime
	comm pass // the dedicated MPI thread's idle pass (CommLoop)
}

// AddNode initialises n as the next node, with the given cost model.
func (rt *Runtime) AddNode(n *Node, cost cluster.CostModel) {
	*n = Node{ID: rt.nodes, Cost: cost, Rank: rt.World.Rank(rt.nodes), rt: rt}
	n.OutMu = sim.Mutex{Name: fmt.Sprintf("outbox-%d", n.ID), HoldCost: cost.RegionalLockHold}
	n.Out = NewMailbox[*event.Event](&n.OutMu, cost.RemoteEnqueue)
	n.comm.init(n, nil)
	n.comm.stop = n.workersDone
	rt.nodes++
}

// AddComm registers n's dedicated MPI thread; call it after adding n's
// workers, which start first. pass lists the stages of the pass a body
// built on CommLoop makes, each as it is when it finds nothing to move.
func (rt *Runtime) AddComm(n *Node, body func(*sim.Proc), pass ...Probe) {
	n.comm.list(pass)
	rt.AddProcess(fmt.Sprintf("n%d/comm", n.ID), body)
}

// Worker is the base of one simulation thread (a ROSS PE): a pending
// event set and the mailbox other threads deposit messages into.
type Worker struct {
	Idx  int // index within the node
	Gidx int // cluster-wide index
	Node *Node
	Proc *sim.Proc // set when the thread starts

	Pending eventq.Queue
	Inbox   Mailbox[*event.Event]
	St      stats.Worker

	rt    *Runtime
	inMu  sim.Mutex
	phase uint8 // last phase traced; 0xFF until the first transition
	idle  pass  // the main loop's idle pass (IdlePass, Idle)
}

// AddWorker initialises w as the next worker of n, the last node added,
// and registers its thread with main as the body.
func (rt *Runtime) AddWorker(w *Worker, n *Node, main func(*sim.Proc)) {
	gidx := len(rt.workers)
	idx := gidx - n.ID*rt.cfg.Topology.WorkersPerNode
	*w = Worker{Idx: idx, Gidx: gidx, Node: n, Pending: eventq.New(rt.cfg.QueueKind), rt: rt, phase: 0xFF}
	w.inMu = sim.Mutex{Name: fmt.Sprintf("inbox-%d/%d", n.ID, idx), HoldCost: n.Cost.RegionalLockHold}
	w.Inbox = NewMailbox[*event.Event](&w.inMu, n.Cost.RegionalSend)
	w.idle.init(n, w)
	rt.workers = append(rt.workers, w)
	rt.AddProcess(fmt.Sprintf("n%d/w%d", n.ID, idx), func(p *sim.Proc) {
		w.Proc = p
		main(p)
		n.WorkersExited++
	})
}

// AddLP initialises l as the next LP in global id order: a fresh model
// instance, the id's RNG substream and an empty commit checksum.
func (rt *Runtime) AddLP(l *LP) {
	id := event.LPID(len(rt.lps))
	*l = LP{ID: id, Model: rt.cfg.Model(id, rt.cfg.Topology.TotalLPs()), RNG: rt.streams.Next(), Checksum: stats.NewChecksum()}
	rt.lps = append(rt.lps, l)
}

// Host makes l the live instance of LP l.ID — the one whose checksum Run
// reads. An engine that rebuilds an LP elsewhere (migration) calls it on
// install; until then the packed instance keeps standing in.
func (rt *Runtime) Host(l *LP) { rt.lps[l.ID] = l }

// Seed runs every model's Init, in global id order, before virtual time
// starts.
func (rt *Runtime) Seed() {
	rt.Views = make([]View, len(rt.workers))
	rt.lvts = make([]float64, 0, len(rt.workers))
	ctx := &seedCtx{}
	for _, l := range rt.lps {
		ctx.W, ctx.LP = rt.workers[rt.cfg.Topology.GlobalWorkerOf(l.ID)], l
		l.Model.Init(ctx)
	}
}

// AddProcess registers a simulated thread. Run spawns the threads in
// registration order, which the kernel's deterministic tie-break follows.
func (rt *Runtime) AddProcess(name string, body func(*sim.Proc)) {
	rt.threads = append(rt.threads, thread{name, body})
}

// Run spawns the registered threads, executes the simulation to
// completion and returns its statistics. When Cancel aborted the run, the
// error wraps sim.ErrCancelled.
func (rt *Runtime) Run() (*stats.Run, error) {
	for _, t := range rt.threads {
		rt.Env.Spawn(t.name, t.body)
	}
	if err := rt.Env.Run(); err != nil {
		return nil, err
	}
	f, ts := rt.World.Fabric(), rt.World.TransportStats()
	fs := f.FaultStats()
	r := &stats.Run{
		GVTRounds: rt.Rounds, SyncRounds: rt.SyncRounds,
		Disparity: rt.disparity.Mean(), Kernel: rt.Env.Counters(),
		MPIMessages: f.MessagesSent, MPIBytes: f.BytesSent,
		Retransmits: ts.Retransmits, TransportDups: ts.DupsSuppressed, TransportExhausted: ts.Exhausted,
		FaultDrops: fs.Dropped, FaultDups: fs.Duplicated, FaultJitters: fs.Jittered, FaultWindowDrops: fs.WindowDropped,
	}
	for _, w := range rt.workers {
		r.Workers.Add(&w.St)
	}
	// The per-LP checksum sum is order-independent.
	for _, l := range rt.lps {
		r.CommitChecksum += uint64(l.Checksum)
	}
	rt.finish(r)
	return r, nil
}

// Cancel requests that a running simulation stop. Safe to call from any
// goroutine (the one method that is); Run unwinds at the next kernel
// dispatch boundary and returns sim.ErrCancelled. Cancelling a finished
// run is a no-op.
func (rt *Runtime) Cancel() { rt.Env.Cancel() }

// View is what only the engine knows about one worker when a round
// completes: its local virtual time under the engine's synchronisation
// rule, and how many processed events it has yet to commit.
type View struct {
	LVT         float64
	Uncommitted int
}

// Round is one completed synchronisation round as the engine reports it.
type Round struct {
	GVT        vtime.Time
	Sync       bool    // the round ran with barriers
	Efficiency float64 // cumulative committed/processed at round end
	Migrations int64   // cumulative LP migrations
}

// RecordRound records a round the engine just completed, with the Views
// row filled: the LVT-disparity sample, the metrics round sample, the
// progress update and the trace record. It performs no simulated work, so
// in the cooperative kernel it is atomic.
func (rt *Runtime) RecordRound(r Round) {
	rt.Rounds++
	if r.Sync {
		rt.SyncRounds++
	}
	var samples []metrics.WorkerSample
	if rt.cfg.Metrics != nil {
		samples = rt.cfg.Metrics.Scratch()
	}
	lvts := rt.lvts[:0]
	var processed, rolled, rollbacks int64
	for i, w := range rt.workers {
		v := rt.Views[i]
		lvts = append(lvts, v.LVT)
		if samples != nil {
			samples[i] = metrics.WorkerSample{
				LVT:           metrics.SafeLVT(v.LVT),
				Pending:       w.Pending.Len(),
				Mailbox:       w.Inbox.Len(),
				Uncommitted:   v.Uncommitted,
				Rollbacks:     w.St.Rollbacks,
				RolledBack:    w.St.RolledBack,
				BarrierWaitNs: int64(w.St.BarrierWait),
			}
		}
		processed += w.St.Processed
		rolled += w.St.RolledBack
		rollbacks += w.St.Rollbacks
	}
	rt.disparity.Observe(lvts)
	at := int64(rt.Env.Now())
	if samples != nil {
		f := rt.World.Fabric()
		inMsgs, inBytes := f.InFlight()
		rt.cfg.Metrics.SampleRound(metrics.RoundSample{
			Round: rt.Rounds, GVT: r.GVT, AtNanos: at, Sync: r.Sync, Efficiency: r.Efficiency,
			MPIInFlightMsgs: inMsgs, MPIInFlightBytes: inBytes,
			MPISentMsgs: f.MessagesSent, MPISentBytes: f.BytesSent,
		}, samples)
		if rt.cfg.Metrics.WantProgress() {
			rt.cfg.Metrics.Progress(metrics.ProgressUpdate{
				Round: rt.Rounds, GVT: r.GVT, AtNanos: at, Sync: r.Sync, Efficiency: r.Efficiency,
				Processed: processed, Committed: processed - rolled,
				Rollbacks: rollbacks, RolledBack: rolled,
				Migrations: r.Migrations,
			})
		}
	}
	if rt.cfg.Trace != nil {
		rt.cfg.Trace.Round(trace.Round{Round: rt.Rounds, GVT: r.GVT, AtNanos: at, Sync: r.Sync, Efficiency: r.Efficiency})
	}
}
