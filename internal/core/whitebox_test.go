package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/vtime"
)

// chainModel sends one event to a fixed next LP per event, recording the
// sum of timestamps it has seen (rollback-protected state).
type chainModel struct {
	self event.LPID
	next event.LPID
	sum  float64
}

func (m *chainModel) Init(ctx Context) {
	if m.self == 0 {
		ctx.Send(m.self, 1.0, 0, nil)
	}
}

func (m *chainModel) OnEvent(ctx Context, ev *event.Event) {
	m.sum += ctx.Now()
	ctx.Send(m.next, 1.0, 0, nil)
}

func (m *chainModel) Snapshot() any { return m.sum }
func (m *chainModel) Restore(s any) { m.sum = s.(float64) }

// newTestEngine builds a 1-node, 1-worker engine without running it, for
// direct manipulation of internals.
func newTestEngine(lps int) (*Engine, *worker) {
	cfg := Config{
		Topology:    cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: lps},
		GVT:         GVTMattern,
		GVTInterval: 10,
		Comm:        CommDedicated,
		EndTime:     100,
		Seed:        1,
		Model: func(lp event.LPID, total int) Model {
			return &chainModel{self: lp, next: lp} // self-chains by default
		},
	}
	eng := New(cfg)
	return eng, eng.nodes[0].workers[0]
}

// mkEvent fabricates a positive event for white-box tests.
func mkEvent(eng *Engine, t float64, src, dst event.LPID, seq uint64) *event.Event {
	return &event.Event{
		Stamp:   vtime.Stamp{T: t, Src: uint32(src), Seq: seq},
		Src:     src,
		Dst:     dst,
		MatchID: eng.nextMatchID(),
	}
}

// drive runs the worker's processing inside a sim process.
func drive(t *testing.T, eng *Engine, fn func()) {
	t.Helper()
	w := eng.nodes[0].workers[0]
	eng.Env.Spawn("test", func(p *sim.Proc) {
		w.Proc = p
		fn()
	})
	if err := eng.Env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresStateAndResends(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		// Drain the Init event of LP 0 and process events up to t=5.
		for i := 0; i < 5; i++ {
			w.processOne(w.Pending.Pop())
		}
		l := w.lps[0]
		if len(l.history) != 5 {
			t.Fatalf("history = %d, want 5", len(l.history))
		}
		sumBefore := l.Model.(*chainModel).sum
		seqBefore := l.Seq

		// Straggler at t=2.5 (between 2nd and 3rd processed events at
		// t=2,3): must undo events with stamp >= 2.5 (t=3,4,5).
		straggler := mkEvent(eng, 2.5, 1, 0, 999)
		w.deliver(straggler)

		if len(l.history) != 2 {
			t.Fatalf("history after rollback = %d, want 2", len(l.history))
		}
		if got := l.Model.(*chainModel).sum; got != 1.0+2.0 {
			t.Errorf("state sum = %v, want 3 (events at t=1,2)", got)
		}
		if l.Seq >= seqBefore {
			t.Errorf("seq not rewound: %d -> %d", seqBefore, l.Seq)
		}
		if sumBefore != 1+2+3+4+5 {
			t.Errorf("pre-rollback sum = %v", sumBefore)
		}
		// Pending now holds the straggler (2.5) and the re-enqueued t=3
		// event. The re-enqueued t=4, t=5 and the t=6 event were created
		// by rolled-back events, so the rollback's anti-messages
		// annihilated them — they will be regenerated during re-execution.
		if w.Pending.Len() != 2 {
			t.Fatalf("pending after rollback = %d, want 2", w.Pending.Len())
		}
		if w.St.Rollbacks != 1 || w.St.RolledBack != 3 {
			t.Errorf("rollback stats: %d episodes, %d events", w.St.Rollbacks, w.St.RolledBack)
		}
		if w.St.Stragglers != 1 {
			t.Errorf("straggler count = %d", w.St.Stragglers)
		}

		// Re-execution: both chains (integer times restarted from t=3 and
		// the straggler's half-offset chain) replay deterministically.
		for w.Pending.Len() > 0 && w.Pending.Peek().Stamp.T < 6 {
			w.processOne(w.Pending.Pop())
		}
		want := 1 + 2 + 2.5 + 3 + 3.5 + 4 + 4.5 + 5 + 5.5
		if got := l.Model.(*chainModel).sum; got != want {
			t.Errorf("replayed sum = %v, want %v", got, want)
		}
	})
}

func TestAntiMessageAnnihilatesPending(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		pos := mkEvent(eng, 7.0, 1, 0, 50)
		w.deliver(pos)
		before := w.Pending.Len()
		w.deliver(pos.AntiCopy())
		if w.Pending.Len() != before-1 {
			t.Errorf("pending %d -> %d, want annihilation", before, w.Pending.Len())
		}
		if w.St.Annihilated != 1 {
			t.Errorf("Annihilated = %d", w.St.Annihilated)
		}
	})
}

func TestAntiBeforePositiveIsStashed(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		pos := mkEvent(eng, 7.0, 1, 0, 51)
		anti := pos.AntiCopy()
		w.deliver(anti)
		l := w.lps[0]
		if len(l.pendingAnti) != 1 {
			t.Fatalf("pendingAnti = %d, want 1", len(l.pendingAnti))
		}
		before := w.Pending.Len()
		w.deliver(pos)
		if w.Pending.Len() != before || len(l.pendingAnti) != 0 {
			t.Error("late positive not annihilated by stashed anti")
		}
	})
}

func TestAntiAgainstProcessedRollsBack(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		// Process the chain a bit, then cancel a processed event.
		for i := 0; i < 3; i++ {
			w.processOne(w.Pending.Pop())
		}
		l := w.lps[0]
		victim := l.history[1].ev // the t=2 event
		w.deliver(victim.AntiCopy())
		if len(l.history) != 1 {
			t.Fatalf("history = %d, want 1 (rolled back past the victim)", len(l.history))
		}
		if w.St.AntiRollbck != 1 {
			t.Errorf("AntiRollbck = %d", w.St.AntiRollbck)
		}
		// The victim must be gone from pending (annihilated after the
		// rollback re-enqueued it).
		for w.Pending.Len() > 0 {
			if w.Pending.Pop().Matches(victim) {
				t.Error("victim still pending after annihilation")
			}
		}
	})
}

func TestGVTViolationPanics(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		w.gvtView = 10
		defer func() {
			if recover() == nil {
				t.Error("message below GVT did not panic")
			}
		}()
		w.deliver(mkEvent(eng, 9.0, 1, 0, 1))
	})
}

func TestApplyGVTCommitsAndFrees(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		for i := 0; i < 6; i++ {
			w.processOne(w.Pending.Pop())
		}
		l := w.lps[0]
		if len(l.history) != 6 {
			t.Fatalf("history = %d", len(l.history))
		}
		w.applyGVT(4.5) // commits t=1,2,3,4
		if w.St.Committed != 4 {
			t.Errorf("Committed = %d, want 4", w.St.Committed)
		}
		if len(l.history) != 2 {
			t.Errorf("history after fossil = %d, want 2", len(l.history))
		}
		if w.gvtView != 4.5 {
			t.Errorf("gvtView = %v", w.gvtView)
		}
	})
}

func TestFossilThenRollbackAboveGVTStillWorks(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		for i := 0; i < 6; i++ {
			w.processOne(w.Pending.Pop())
		}
		w.applyGVT(3.5) // history left: t=4,5,6
		w.deliver(mkEvent(eng, 4.5, 1, 0, 77))
		l := w.lps[0]
		// Events 5,6 rolled back; 4 remains.
		if len(l.history) != 1 || l.history[0].ev.Stamp.T != 4 {
			t.Errorf("history after post-fossil rollback: %d entries", len(l.history))
		}
	})
}

func TestLPPlacementPanic(t *testing.T) {
	eng, _ := newTestEngine(2)
	defer func() {
		if recover() == nil {
			t.Error("lpByID for foreign LP did not panic")
		}
	}()
	eng.nodes[0].workers[0].lpByID(event.LPID(5))
}

func TestNegativeDelayPanics(t *testing.T) {
	cfg := Config{
		Topology:    cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
		GVT:         GVTMattern,
		GVTInterval: 10,
		Comm:        CommDedicated,
		EndTime:     10,
		Seed:        1,
		Model: func(lp event.LPID, total int) Model {
			return &badDelayModel{}
		},
	}
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	_, _ = New(cfg).Run()
}

type badDelayModel struct{}

func (m *badDelayModel) Init(ctx Context)                    { ctx.Send(0, 1, 0, nil) }
func (m *badDelayModel) OnEvent(ctx Context, _ *event.Event) { ctx.Send(0, -1, 0, nil) }
func (m *badDelayModel) Snapshot() any                       { return nil }
func (m *badDelayModel) Restore(any)                         {}

// TestUnackedMap checks a Samadi sender's cover: ack ids of two workers
// never collide and each routes back to the worker that registered it,
// the minimum is over the entries still unacknowledged, an acknowledged
// entry stops counting, and an empty set covers nothing (+Inf).
func TestUnackedMap(t *testing.T) {
	eng := New(Config{
		Topology: cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 1},
		GVT:      GVTSamadi, GVTInterval: 10, Comm: CommDedicated, EndTime: 100, Seed: 1,
		Model: func(lp event.LPID, total int) Model {
			return &chainModel{self: lp, next: lp}
		},
	})
	a, b := eng.nodes[0].workers[1], eng.nodes[1].workers[0]
	if a.unackedMin() != vtime.Inf || b.unackedMin() != vtime.Inf {
		t.Fatal("an empty set covers a stamp")
	}
	a5, a3, a7 := a.registerUnacked(5), a.registerUnacked(3), a.registerUnacked(7)
	b1 := b.registerUnacked(1)
	ids := map[uint64]*worker{a5: a, a3: a, a7: a, b1: b}
	if len(ids) != 4 {
		t.Fatalf("ack ids collide: %x %x %x %x", a5, a3, a7, b1)
	}
	for id, w := range ids {
		if id == 0 || int(id>>ackWorkerShift) != w.Gidx {
			t.Errorf("ack id %x decodes to worker %d, registered by %d", id, id>>ackWorkerShift, w.Gidx)
		}
	}
	if a.unackedMin() != 3 || b.unackedMin() != 1 {
		t.Fatalf("minima %v, %v; want 3, 1", a.unackedMin(), b.unackedMin())
	}
	// Acks take the engine's own path: a receiver on a's node routes each
	// ack by its id into a's mailbox, and a drains it.
	eng.Env.Spawn("test", func(p *sim.Proc) {
		r := eng.nodes[0].workers[0]
		r.Proc, a.Proc = p, p
		r.sendAckTo(a3)
		a.drainAcks()
		if got := a.unackedMin(); got != 5 {
			t.Errorf("min after acking 3 = %v, want 5", got)
		}
		r.sendAckTo(a5)
		r.sendAckTo(a7)
		a.drainAcks()
		if got := a.unackedMin(); got != vtime.Inf {
			t.Errorf("min after acking all = %v, want +Inf", got)
		}
		if got := b.unackedMin(); got != 1 {
			t.Errorf("other worker's min = %v after a's acks, want 1", got)
		}
	})
	if err := eng.Env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFullFossilResetsSnapshotCadence is a regression test: fossil
// collection that frees an LP's entire history must reset the snapshot
// cadence, or (with CheckpointInterval > 1) the next processed event lacks
// a snapshot and a later rollback has no coast-forward base.
func TestFullFossilResetsSnapshotCadence(t *testing.T) {
	cfg := Config{
		Topology:           cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 2},
		GVT:                GVTMattern,
		GVTInterval:        10,
		CheckpointInterval: 4,
		Comm:               CommDedicated,
		EndTime:            100,
		Seed:               1,
		Model: func(lp event.LPID, total int) Model {
			return &chainModel{self: lp, next: lp}
		},
	}
	eng := New(cfg)
	w := eng.nodes[0].workers[0]
	drive(t, eng, func() {
		// Process to mid-cadence (6 events: snapshots at indices 0 and 4).
		for i := 0; i < 6; i++ {
			w.processOne(w.Pending.Pop())
		}
		// Fossil-collect everything processed so far (events at t=1..6).
		w.applyGVT(6.5)
		l := w.lps[0]
		if len(l.history) != 0 {
			t.Fatalf("history not fully freed: %d", len(l.history))
		}
		// Next processed event must carry a snapshot...
		w.processOne(w.Pending.Pop())
		if !l.history[0].hasSnap {
			t.Fatal("first entry after full fossil lacks a snapshot")
		}
		// ...so a rollback to it must not panic.
		w.processOne(w.Pending.Pop())
		w.deliver(mkEvent(eng, l.history[0].ev.Stamp.T, 1, 0, 12345))
	})
}
