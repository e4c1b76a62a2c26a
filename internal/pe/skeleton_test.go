package pe_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/pe"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// threadOf is a thread with nothing to judge: a body, and the answers of
// the pe.Worker or pe.Node it runs on (pe.Thread).
type threadOf struct {
	answers
	body func(*sim.Proc)
}

type answers interface {
	Quiet(stage int) bool
	Stop() bool
	IdleEnd(n int) int
}

func (t threadOf) Main(p *sim.Proc) { t.body(p) }

// selfLoop only ever sends to its own LP, so LPs never interact and the
// least possible engine — each worker runs its own events to the end — is
// a correct one. It checks the context it is handed on the way.
type selfLoop struct {
	t    *testing.T
	self event.LPID
	lps  int
}

func (m *selfLoop) Init(ctx pe.Context) {
	ctx.Spin(1000) // no CPU time passes before the start
	ctx.Send(m.self, ctx.RNG().Exp(1), 0, nil)
}

func (m *selfLoop) OnEvent(ctx pe.Context, ev *event.Event) {
	if ctx.Self() != m.self || ctx.Now() != ev.Stamp.T || ctx.NumLPs() != m.lps {
		m.t.Errorf("LP %d at %v: context says LP %d at %v of %d", m.self, ev.Stamp.T, ctx.Self(), ctx.Now(), ctx.NumLPs())
	}
	ctx.Spin(100 * (1 + int(m.self)))
	ctx.Send(m.self, 0.3+ctx.RNG().Exp(1), 0, nil)
}

func (m *selfLoop) Snapshot() any { return nil }
func (m *selfLoop) Restore(any)   {}

// toyWorker is that least engine's worker.
type toyWorker struct {
	pe.Worker
	lps   []*pe.LP
	first event.LPID
}

// TestRunSkeleton drives everything the runtime does for an engine —
// construction in global order, seeding, thread spawn and exit counting,
// Spin, commit accounting, phases, barrier attribution, round recording,
// the common statistics and the finish hook — and holds the result to the
// sequential oracle.
func TestRunSkeleton(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 3}
	const end, seed = 12.0, 9
	factory := func(lp event.LPID, total int) pe.Model { return &selfLoop{t: t, self: lp, lps: total} }
	oracle := seq.New(factory, top.TotalLPs(), end, seed).Run()

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rec := metrics.NewRecorder()
	var progress []metrics.ProgressUpdate
	rec.OnProgress = func(u metrics.ProgressUpdate) { progress = append(progress, u) }

	rt := &pe.Runtime{}
	finished := false
	rt.Init("test", pe.Config{
		Topology: top, Seed: seed, Model: factory, Trace: tw, Metrics: rec,
	}, func(r *stats.Run) { finished = true; r.WallTime = rt.Env.Now() })

	cost := cluster.KNLDefaults()
	var workers []*toyWorker
	nodes := make([]pe.Node, top.Nodes)
	for ni := range nodes {
		n := &nodes[ni]
		rt.AddNode(n, cost)
		done := sim.NewBarrier("done", top.WorkersPerNode+1)
		for wi := 0; wi < top.WorkersPerNode; wi++ {
			w := &toyWorker{first: top.FirstLP(ni, wi)}
			workers = append(workers, w)
			rt.AddWorker(&w.Worker, n, threadOf{&w.Worker, func(p *sim.Proc) {
				ctx := &loopCtx{pe.Ctx{W: &w.Worker}}
				w.SetPhase(trace.PhaseProcessing)
				for ev := w.Pending.Peek(); ev != nil && ev.Stamp.T <= end; ev = w.Pending.Peek() {
					w.Pending.Pop()
					l := w.lps[ev.Dst-w.first]
					ctx.LP, ctx.T = l, ev.Stamp.T
					l.Model.OnEvent(ctx, ev)
					w.St.Processed++
					w.Commit(l, ev)
				}
				w.SetPhase(trace.PhaseBarrier)
				w.SetPhase(trace.PhaseBarrier) // a repeat records nothing
				w.BarrierWait(done)
			}})
			for i := 0; i < top.LPsPerWorker; i++ {
				l := &pe.LP{}
				rt.AddLP(l)
				w.lps = append(w.lps, l)
			}
		}
		rt.AddComm(n, threadOf{n, func(p *sim.Proc) {
			done.Wait(p)
			if n.ID != 0 {
				return
			}
			for _, w := range workers {
				rt.Views[w.Gidx] = pe.View{LVT: w.Pending.MinStamp().T, Uncommitted: 7}
			}
			rt.RecordRound(pe.Round{GVT: end, Sync: true, Efficiency: 1, Migrations: 2})
		}})
	}
	rt.Seed()

	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !finished || r.WallTime <= 0 {
		t.Errorf("finish hook: called=%v, WallTime=%v", finished, r.WallTime)
	}
	if r.Workers.Committed != oracle.Processed || r.CommitChecksum != oracle.Checksum {
		t.Errorf("committed %d checksum %016x, oracle %d %016x", r.Workers.Committed, r.CommitChecksum, oracle.Processed, oracle.Checksum)
	}
	if r.GVTRounds != 1 || r.SyncRounds != 1 || r.Kernel.Dispatches == 0 {
		t.Errorf("rounds %d sync %d dispatches %d", r.GVTRounds, r.SyncRounds, r.Kernel.Dispatches)
	}
	if r.Workers.BarrierWait <= 0 {
		t.Error("no barrier wait attributed although workers finish at different times")
	}
	for i, w := range workers {
		if w.Gidx != i || w.Idx != i%top.WorkersPerNode || w.Node.ID != i/top.WorkersPerNode || w.lps[0].ID != w.first {
			t.Errorf("worker %d: gidx %d idx %d node %d first LP %d", i, w.Gidx, w.Idx, w.Node.ID, w.lps[0].ID)
		}
	}
	for _, n := range nodes {
		if n.WorkersExited != top.WorkersPerNode {
			t.Errorf("node %d: %d workers exited, want %d", n.ID, n.WorkersExited, top.WorkersPerNode)
		}
	}

	// Node 0 records the round when its own workers are done; node 1's
	// may still be running.
	if len(progress) != 1 || progress[0].Committed != progress[0].Processed || progress[0].Committed <= 0 ||
		progress[0].Committed > oracle.Processed || progress[0].Migrations != 2 || !progress[0].Sync {
		t.Errorf("progress updates %+v", progress)
	}
	if rounds := rec.Rounds(); len(rounds) != 1 || rounds[0].Round != 1 || rounds[0].GVT != end {
		t.Errorf("round samples %+v", rounds)
	}
	for i := range workers {
		if ws := rec.WorkerSeries(i); len(ws) != 1 || ws[0].Uncommitted != 7 || ws[0].Pending == 0 || ws[0].BarrierWaitNs < 0 {
			t.Errorf("worker %d samples %+v", i, ws)
		}
	}

	var commits, rounds int64
	phases := make(map[uint32][]uint8)
	err = trace.NewReader(&buf).ForEach(trace.Visitor{
		Commit: func(trace.Commit) { commits++ },
		Round: func(rd trace.Round) {
			rounds++
			if rd.Round != 1 || rd.GVT != end || !rd.Sync {
				t.Errorf("round record %+v", rd)
			}
		},
		Phase: func(ph trace.Phase) { phases[ph.Worker] = append(phases[ph.Worker], ph.Phase) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != oracle.Processed || rounds != 1 {
		t.Errorf("trace has %d commits and %d rounds, want %d and 1", commits, rounds, oracle.Processed)
	}
	for i := range workers {
		if got := phases[uint32(i)]; len(got) != 2 || got[0] != trace.PhaseProcessing || got[1] != trace.PhaseBarrier {
			t.Errorf("worker %d phase transitions %v", i, got)
		}
	}
}

// TestCancel: a cancelled runtime returns sim.ErrCancelled from Run.
func TestCancel(t *testing.T) {
	rt := &pe.Runtime{}
	rt.Init("test", pe.Config{
		Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
	}, func(*stats.Run) { t.Error("finish hook ran on a cancelled run") })
	rt.AddProcess("forever", func(p *sim.Proc) {
		for {
			p.Advance(1)
		}
	})
	rt.Cancel()
	if _, err := rt.Run(); !errors.Is(err, sim.ErrCancelled) {
		t.Errorf("Run after Cancel: %v, want sim.ErrCancelled", err)
	}
}
