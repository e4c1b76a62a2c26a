package core

import (
	"fmt"
	"strings"
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

// history returns l's history entries, oldest first.
func history(l *lp) []*histEntry {
	var h []*histEntry
	for e := l.oldest; e != nil; e = e.next {
		h = append(h, e)
	}
	return h
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
		if len(history(l)) != 5 {
			t.Fatalf("history = %d, want 5", len(history(l)))
		}
		sumBefore := l.Model.(*chainModel).sum
		seqBefore := l.Seq

		// Straggler at t=2.5 (between 2nd and 3rd processed events at
		// t=2,3): must undo events with stamp >= 2.5 (t=3,4,5).
		straggler := mkEvent(eng, 2.5, 1, 0, 999)
		w.deliver(straggler)

		if len(history(l)) != 2 {
			t.Fatalf("history after rollback = %d, want 2", len(history(l)))
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
		victim := history(l)[1].ev // the t=2 event
		w.deliver(victim.AntiCopy())
		if len(history(l)) != 1 {
			t.Fatalf("history = %d, want 1 (rolled back past the victim)", len(history(l)))
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

// wantPanic runs fn and fails unless it panics with a message holding want.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("recovered %q, want a panic holding %q", msg, want)
		}
	}()
	fn()
}

// TestGVTInvariantChecked: with no fault plan, a round that would publish
// a GVT above an event still pending is refused, naming where the event
// sits; one at or below it passes.
func TestGVTInvariantChecked(t *testing.T) {
	eng, w := newTestEngine(2)
	w.Pending.Push(mkEvent(eng, 0.5, 1, 0, 1))
	eng.onRoundComplete(0.5, false, 1)
	wantPanic(t, "core: GVT invariant violated: published GVT 0.75 exceeds worker pending event = 0.5", func() {
		eng.onRoundComplete(0.75, false, 1)
	})
}

// TestUseAfterRecycleChecked: with the default, non-poisoning pool, an
// event delivered after it went back to the pool is caught at delivery.
func TestUseAfterRecycleChecked(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		pool := &w.node.pool
		ev := pool.Get()
		*ev = *mkEvent(eng, 3, 1, 0, 1)
		pool.Put(ev)
		wantPanic(t, "core: use-after-recycle: freed event touched in deliver", func() {
			w.deliver(ev)
		})
	})
}

func TestApplyGVTCommitsAndFrees(t *testing.T) {
	eng, w := newTestEngine(2)
	drive(t, eng, func() {
		for i := 0; i < 6; i++ {
			w.processOne(w.Pending.Pop())
		}
		l := w.lps[0]
		if len(history(l)) != 6 {
			t.Fatalf("history = %d", len(history(l)))
		}
		w.applyGVT(4.5) // commits t=1,2,3,4
		if w.St.Committed != 4 {
			t.Errorf("Committed = %d, want 4", w.St.Committed)
		}
		if len(history(l)) != 2 {
			t.Errorf("history after fossil = %d, want 2", len(history(l)))
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
		if len(history(l)) != 1 || history(l)[0].ev.Stamp.T != 4 {
			t.Errorf("history after post-fossil rollback: %d entries", len(history(l)))
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
		if len(history(l)) != 0 {
			t.Fatalf("history not fully freed: %d", len(history(l)))
		}
		// Next processed event must carry a snapshot...
		w.processOne(w.Pending.Pop())
		if !history(l)[0].hasSnap {
			t.Fatal("first entry after full fossil lacks a snapshot")
		}
		// ...so a rollback to it must not panic.
		w.processOne(w.Pending.Pop())
		w.deliver(mkEvent(eng, history(l)[0].ev.Stamp.T, 1, 0, 12345))
	})
}

// TestCreditIdlePassesInClosedForm: crediting n idle passes at once leaves
// the counters n calls of idleCredit leave, and the answer is the number
// of passes after them whose credit keeps the interval counter under
// GVTInterval — the limit a parked worker is given.
func TestCreditIdlePassesInClosedForm(t *testing.T) {
	_, w := newTestEngine(1)
	for _, rounds := range []int{0, 1, 3, 6, 9} {
		for _, idle := range []int{0, 1, 63, 64, 100, 4095} {
			for _, passes := range []int{0, 3, 9, 10, 12} {
				for _, n := range []int{0, 1, 2, 63, 64, 65, 200, 5000} {
					w.idleRounds, w.idlePasses, w.passes = rounds, idle, passes
					quiet := w.creditIdlePasses(n)
					got := [2]int{w.idlePasses, w.passes}
					w.idlePasses, w.passes = idle, passes
					for range n {
						w.idlePasses, w.passes = w.idleCredit()
					}
					if want := [2]int{w.idlePasses, w.passes}; got != want {
						t.Fatalf("rounds %d, idle %d, passes %d, n %d: closed form left %v, one by one %v", rounds, idle, passes, n, got, want)
					}
					count := 0
					for ; ; count++ {
						if _, p := w.idleCredit(); p >= w.eng.cfg.GVTInterval {
							break
						}
						w.idlePasses, w.passes = w.idleCredit()
					}
					if quiet != count {
						t.Fatalf("rounds %d, idle %d, passes %d, n %d: answered %d quiet passes, counted %d", rounds, idle, passes, n, quiet, count)
					}
				}
			}
		}
	}
}

// fanModel is chainModel with a varying fan-out: besides the chain's one
// event, the event at t sends int(t)%3 more to the far LP, due well past
// what the test processes, so an entry sends 1, 2 or 3 events.
type fanModel struct {
	chainModel
	far event.LPID
}

func (m *fanModel) OnEvent(ctx Context, ev *event.Event) {
	m.chainModel.OnEvent(ctx, ev)
	for i := 0; i < int(ctx.Now())%3; i++ {
		ctx.Send(m.far, 50, 0, nil)
	}
}

// TestSentLogFollowsHistory: an LP's history is a list of entries, each
// with the run of records of what its event sent, and the worker's free
// lists keep the books. Through processing, a straggler rollback, an
// anti-message rollback, a partial and a full fossil collection and a
// migration out, every entry's records are exactly its event's sends
// (sent at its stamp, as many as the model sends there) in send order;
// the entries on the LPs' lists plus those on the free list are every
// entry the slab has handed out, and the same holds for records; and no
// free entry or record keeps an event, a snapshot or a link into a live
// list.
func TestSentLogFollowsHistory(t *testing.T) {
	eng := New(Config{
		Topology:           cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 2},
		GVT:                GVTMattern,
		GVTInterval:        10,
		CheckpointInterval: 3,
		Comm:               CommDedicated,
		EndTime:            100,
		Seed:               1,
		Model: func(lp event.LPID, total int) Model {
			return &fanModel{chainModel: chainModel{self: lp, next: lp}, far: 1}
		},
	})
	w := eng.nodes[0].workers[0]
	check := func(step string) {
		t.Helper()
		live := map[any]bool{}
		entries, recs := 0, 0
		for _, l := range w.lps {
			var prev *histEntry
			for e := l.oldest; e != nil; e = e.next {
				live[e] = true
				entries++
				if e.prev != prev || (prev != nil && !prev.ev.Stamp.Before(e.ev.Stamp)) {
					t.Fatalf("%s: LP %d history is not a list in stamp order at %v", step, l.ID, e.ev.Stamp.T)
				}
				n, match := 0, uint64(0)
				for r := e.sent; r != nil; r = r.next {
					live[r] = true
					recs++
					n++
					out := r.ev
					if out.Freed() || out.Src != l.ID || out.SendTime != e.ev.Stamp.T || out.MatchID <= match {
						t.Fatalf("%s: LP %d entry at %v records %v as send %d (sent at %v, freed %v)", step, l.ID, e.ev.Stamp.T, out, n, out.SendTime, out.Freed())
					}
					match = out.MatchID
				}
				if want := 1 + int(e.ev.Stamp.T)%3; l.ID == 0 && n != want {
					t.Fatalf("%s: LP %d entry at %v records %d sends, its event sent %d", step, l.ID, e.ev.Stamp.T, n, want)
				}
				prev = e
			}
			if l.newest != prev {
				t.Fatalf("%s: LP %d newest entry is not the list's last", step, l.ID)
			}
		}
		// The walks stop past the slabs' counts, so a cycle fails the books.
		for e := w.freeEntries; e != nil && entries <= w.entrySlab.Made(); e = e.next {
			if live[e] || e.snapping != nil || *e != (histEntry{next: e.next}) {
				t.Fatalf("%s: free entry %+v is live or keeps something", step, *e)
			}
			entries++
		}
		for r := w.freeRecs; r != nil && recs <= w.recSlab.Made(); r = r.next {
			if live[r] || r.ev != nil {
				t.Fatalf("%s: free record %+v is live or keeps an event", step, *r)
			}
			recs++
		}
		if entries != w.entrySlab.Made() || recs != w.recSlab.Made() {
			t.Fatalf("%s: %d entries and %d records live or free, the slabs handed out %d and %d",
				step, entries, recs, w.entrySlab.Made(), w.recSlab.Made())
		}
	}
	processBelow := func(end float64) {
		for w.Pending.Peek().Stamp.T < end {
			w.processOne(w.Pending.Pop())
		}
	}
	drive(t, eng, func() {
		l := w.lps[0]
		processBelow(6.5)
		check("process")
		if len(history(l)) != 6 {
			t.Fatalf("history %d: not the run this test needs", len(history(l)))
		}

		w.deliver(mkEvent(eng, 2.5, 1, 0, 999))
		if w.St.Stragglers != 1 {
			t.Fatalf("straggler rollbacks = %d, want 1", w.St.Stragglers)
		}
		check("straggler rollback")

		ext := mkEvent(eng, 4.25, 1, 0, 1000)
		w.deliver(ext)
		processBelow(6)
		check("process again")

		w.deliver(ext.AntiCopy())
		if w.St.AntiRollbck != 1 {
			t.Fatalf("anti-message rollbacks = %d, want 1", w.St.AntiRollbck)
		}
		check("anti-message rollback")

		before := len(history(l))
		w.applyGVT(3.2)
		if n := len(history(l)); n == 0 || n >= before {
			t.Fatalf("fossil collection left %d of %d entries: not the partial one this test needs", n, before)
		}
		check("fossil collection")

		processBelow(7)
		w.applyGVT(w.Pending.Peek().Stamp.T)
		if l.oldest != nil || l.newest != nil {
			t.Fatalf("full fossil collection left %d entries", len(history(l)))
		}
		check("full fossil collection")

		// Six more entries, snapshots on the first and fourth: a GVT at
		// the sixth commits five and keeps the fourth and fifth as the
		// sixth's coast-forward base.
		for len(history(l)) < 6 {
			w.processOne(w.Pending.Pop())
		}
		g := history(l)[5].ev.Stamp.T
		w.applyGVT(g)
		var kept []*event.Event
		for _, e := range history(l) {
			if e.committed {
				kept = append(kept, e.ev)
			}
		}
		if len(kept) != 2 {
			t.Fatalf("fossil collection kept %d committed entries, not the 2 this test needs", len(kept))
		}
		check("fossil collection keeping a base")

		w.migrateOut(l, g, migOrder{lp: l.ID})
		if l.oldest != nil || l.newest != nil {
			t.Fatalf("migrated LP keeps %d entries", len(history(l)))
		}
		for _, ev := range kept {
			if !ev.Freed() {
				t.Fatalf("migration dropped committed %v without returning it to the pool", ev)
			}
		}
		check("migration out")
	})
}
