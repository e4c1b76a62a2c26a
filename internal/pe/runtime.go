package pe

import (
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
	Topology cluster.Topology
	Seed     uint64
	Model    ModelFactory
	Trace    *trace.Writer     // nil: no tracing
	Metrics  *metrics.Recorder // nil: no sampling
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
	workers   []*Worker      // global index order
	lps       []*LP          // every LP, by id
	threads   []thread       // spawn order
	evs       []*event.Event // the rest of the array carve takes from
	disparity stats.Disparity
	lvts      []float64
}

// thread is an engine's worker or comm thread, whose pass holds it, or an
// AddProcess body.
type thread struct {
	name string
	ps   *pass
	body func(*sim.Proc)
}

// A Thread is an engine's worker or comm thread, which its worker or node
// implements: registering one allocates nothing. Besides its body it
// answers for its own idle pass, each stage by its index in the list
// AddComm or Worker.IdlePass was given. Worker and Node give the answers of
// a thread with nothing to judge: no stage quiet, Stop as below, IdleEnd -1.
type Thread interface {
	Main(p *sim.Proc)
	// Quiet answers a StableProbe and a conditional probe (If) at stage.
	Quiet(stage int) bool
	// Stop is the loop's own test, asked at the top of a pass; a worker's
	// may read only the worker's own state, since a parked worker does not
	// ask it. Node's is every worker of the node having exited.
	Stop() bool
	// IdleEnd is the bookkeeping the loop does for passes in which every
	// stage found nothing, n of them at once: it answers how many more
	// passes would leave every stage quiet (negative: any number; IdleEnd(0)
	// only answers), and a parked thread skips that many at most.
	IdleEnd(n int) (quiet int)
}

// The answers of a worker and a comm thread with nothing to judge.
func (*Worker) Quiet(int) bool  { return false }
func (*Worker) Stop() bool      { return false }
func (*Worker) IdleEnd(int) int { return -1 }
func (*Node) Quiet(int) bool    { return false }
func (n *Node) Stop() bool      { return n.WorkersExited == n.rt.cfg.Topology.WorkersPerNode }
func (*Node) IdleEnd(int) int   { return -1 }

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
	rt.threads = make([]thread, 0, c.Topology.TotalWorkers()+c.Topology.Nodes+1) // and an observer
	// Pending sets (two events per LP) and mailbox arrays start in one array.
	top := &c.Topology
	rt.evs = make([]*event.Event, top.TotalWorkers()*2*(top.LPsPerWorker+boxCap)+top.Nodes*2*boxCap)
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

	rt      *Runtime
	workers []*Worker // the node's, in AddWorker order
	comm    pass      // the dedicated MPI thread's idle pass (CommLoop)
}

// Touch is the node's change signal, due in the dispatch of every change to
// what a StableProbe or the comm thread's Stop reads that can turn it
// false: a parked thread whose pass would find something wakes.
func (n *Node) Touch() {
	n.comm.recheck()
	for _, w := range n.workers {
		w.idle.recheck()
	}
}

// AddNode initialises n as the next node, with the given cost model.
func (rt *Runtime) AddNode(n *Node, cost cluster.CostModel) {
	*n = Node{ID: rt.nodes, Cost: cost, Rank: rt.World.Rank(rt.nodes), rt: rt}
	n.OutMu = sim.Mutex{Name: rt.Env.Name("outbox-%d", n.ID), HoldCost: cost.RegionalLockHold}
	n.Out = Mailbox[*event.Event]{mu: &n.OutMu, cost: cost.RemoteEnqueue, items: rt.carve(boxCap), spare: rt.carve(boxCap)}
	rt.nodes++
}

// AddComm registers n's dedicated MPI thread; call it after adding n's
// workers, which start first. pass lists the stages of the pass a body
// built on CommLoop makes, each as it is when it finds nothing to move.
func (rt *Runtime) AddComm(n *Node, main Thread, pass ...Probe) {
	n.comm.init(n, nil, main, rt.Env.Name("n%d/comm", n.ID))
	n.comm.list(pass)
	rt.threads = append(rt.threads, thread{name: n.comm.name, ps: &n.comm})
}

// Worker is the base of one simulation thread (a ROSS PE): a pending
// event set and the mailbox other threads deposit messages into.
type Worker struct {
	Idx  int // index within the node
	Gidx int // cluster-wide index
	Node *Node
	Proc *sim.Proc // set when the thread starts

	Pending eventq.Heap
	Inbox   Mailbox[*event.Event]
	St      stats.Worker

	rt    *Runtime
	inMu  sim.Mutex
	phase uint8 // last phase traced; 0xFF until the first transition
	idle  pass  // the main loop's idle pass (IdlePass, Idle)

	// The charges an event's processing owes (Owe), in order, until Settle.
	owed  [4]sim.Time
	nOwed int
}

// Owe adds d to the charges Settle lets pass. Between them the thread may
// touch only what no other thread reads (DESIGN.md "Kernel scheduling",
// Charges in one switch); a full list settles early, which is exact.
func (w *Worker) Owe(d sim.Time) {
	if w.nOwed == len(w.owed) {
		w.Settle()
	}
	w.owed[w.nOwed] = d
	w.nOwed++
}

// Settle lets the owed charges pass, as one Advance each, in one process
// switch (sim.Proc.AdvanceEach).
func (w *Worker) Settle() {
	if n := w.nOwed; n > 0 {
		w.nOwed = 0
		w.Proc.AdvanceEach(w.owed[:n]...)
	}
}

// AddWorker initialises w as the next worker of n, the last node added,
// and registers its thread with main as the body.
func (rt *Runtime) AddWorker(w *Worker, n *Node, main Thread) {
	gidx := len(rt.workers)
	idx := gidx - n.ID*rt.cfg.Topology.WorkersPerNode
	// A pending set starts out holding about its LPs' seed events, one
	// each for most models, and has room for as many again.
	pending := rt.carve(2 * rt.cfg.Topology.LPsPerWorker)
	*w = Worker{Idx: idx, Gidx: gidx, Node: n, Pending: eventq.HeapOn(pending), rt: rt, phase: 0xFF}
	w.inMu = sim.Mutex{Name: rt.Env.Name("inbox-%d/%d", n.ID, idx), HoldCost: n.Cost.RegionalLockHold}
	w.Inbox = Mailbox[*event.Event]{mu: &w.inMu, cost: n.Cost.RegionalSend, items: rt.carve(boxCap), spare: rt.carve(boxCap)}
	w.idle.init(n, w, main, rt.Env.Name("n%d/w%d", n.ID, idx))
	rt.workers = append(rt.workers, w)
	n.workers = rt.workers[gidx-idx : gidx+1] // a view: Init sized rt.workers for every worker
	rt.threads = append(rt.threads, thread{name: w.idle.name, ps: &w.idle})
}

// AddLP initialises l as the next LP in global id order: a fresh model
// instance, the id's RNG substream and an empty commit checksum.
func (rt *Runtime) AddLP(l *LP) {
	id := event.LPID(len(rt.lps))
	*l = LP{ID: id, Model: rt.cfg.Model(id, rt.cfg.Topology.TotalLPs()), RNG: rt.streams.Next(), Checksum: stats.NewChecksum()}
	rt.lps = append(rt.lps, l)
}

// Seed runs every model's Init, in global id order, before virtual time
// starts.
func (rt *Runtime) Seed() {
	rt.Views = make([]View, len(rt.workers))
	rt.lvts = make([]float64, 0, len(rt.workers))
	ctx := &seedCtx{}
	ctx.events.First = len(rt.lps) // one seed event per LP, for most models
	for _, l := range rt.lps {
		ctx.W, ctx.LP = rt.workers[rt.cfg.Topology.GlobalWorkerOf(l.ID)], l
		l.Model.Init(ctx)
	}
}

// AddProcess registers a simulated thread. Run spawns the threads in
// registration order, which the kernel's deterministic tie-break follows.
func (rt *Runtime) AddProcess(name string, body func(*sim.Proc)) {
	rt.threads = append(rt.threads, thread{name: name, body: body})
}

// boxCap is what each of a mailbox's two arrays holds before it grows.
const boxCap = 8

// carve takes n values of rt.evs, as an empty slice that holds n.
func (rt *Runtime) carve(n int) []*event.Event {
	v := rt.evs[:0:n]
	rt.evs = rt.evs[n:]
	return v
}

// runThread is the body of every thread Run spawns, the environment's
// processes in registration order: no closure per thread.
func (rt *Runtime) runThread(p *sim.Proc) {
	switch t := &rt.threads[p.ID()]; {
	case t.body != nil:
		t.body(p)
	case t.ps.worker == nil:
		t.ps.th.Main(p)
	default:
		t.ps.worker.Proc = p
		t.ps.th.Main(p)
		t.ps.node.WorkersExited++
		t.ps.node.Touch() // Node.Stop reads the count
	}
}

// Run spawns the registered threads, executes the simulation to
// completion and returns its statistics. When Cancel aborted the run, the
// error wraps sim.ErrCancelled.
func (rt *Runtime) Run() (*stats.Run, error) {
	body := rt.runThread
	for _, t := range rt.threads {
		rt.Env.Spawn(t.name, body)
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
		Retransmits: ts.Retransmits, TransportDups: ts.DupsSuppressed,
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
