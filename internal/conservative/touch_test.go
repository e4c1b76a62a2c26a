package conservative

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// A scripted model: what each LP does is data, so a test can place one
// mutation of one worker's state at a chosen instant of another's idling.

type send struct {
	dst   event.LPID
	delay vtime.Time // from Init: the absolute time
	kind  uint16
}

// act is what an LP does on an event of one kind: burn CPU, then send.
type act struct {
	spin  int // EPG units (1 ns each on the default machine)
	sends []send
}

type lpScript struct {
	init []send
	on   map[uint16]act
}

type scripted struct{ s lpScript }

func (m scripted) Init(ctx pe.Context) {
	for _, s := range m.s.init {
		ctx.Send(s.dst, s.delay, s.kind, nil)
	}
}

func (m scripted) OnEvent(ctx pe.Context, ev *event.Event) {
	a := m.s.on[ev.Kind]
	ctx.Spin(a.spin)
	for _, s := range a.sends {
		ctx.Send(s.dst, s.delay, s.kind, nil)
	}
}

func (scripted) Snapshot() any { return nil }
func (scripted) Restore(any)   {}

// cappedBuffer is a trace sink that cancels its run once the bytes
// written pass cap (0: never).
type cappedBuffer struct {
	bytes.Buffer
	cap    int
	cancel func()
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if b.cap > 0 && b.Len()+len(p) > b.cap {
		b.cancel()
	}
	return b.Buffer.Write(p)
}

// touchRun runs one scripted configuration and returns its statistics and
// its trace. A run whose trace passes traceCap bytes (0: no cap) is
// cancelled and fails the test: a thread left parked past a missed Touch
// can run on with no end, its trace growing until the host runs out of
// memory.
func touchRun(t *testing.T, top cluster.Topology, end vtime.Time, lps map[event.LPID]lpScript, literal bool, traceCap int) (*stats.Run, []byte) {
	t.Helper()
	buf := &cappedBuffer{cap: traceCap}
	tw := trace.NewWriter(buf)
	eng := New(Config{
		Topology: top, Sync: SyncNullMsg, Lookahead: 1, EndTime: end, Seed: 1, Trace: tw,
		Model: func(id event.LPID, _ int) pe.Model { return scripted{lps[id]} },
	})
	buf.cancel = eng.Cancel
	eng.LiteralIdle = literal
	watchdog := time.AfterFunc(30*time.Second, eng.Cancel)
	defer watchdog.Stop()
	r, err := eng.Run()
	if errors.Is(err, sim.ErrCancelled) && traceCap > 0 && buf.Len() > traceCap {
		t.Fatalf("cancelled with its trace past %d bytes, twice the literal run's: a thread missed a Touch and ran on (%v)", traceCap, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestTouchSites: a parked thread is asked again only at a Touch, so every
// change that can turn a worker's or the node's Quiet false must Touch the
// node — a missed one leaves a thread parked past the instant its pass had
// something to do. One row per Touch site: the script makes that one
// change to one thread's state while another idles on a promise or a
// peer's floor, and the run must equal, in every statistic and trace byte
// (the phase records carry the instant a worker resumes), the run whose
// threads make every pass themselves and never park. Each row also checks
// that its run skipped steps and asked a parked thread again, or the
// comparison would hold vacuously.
//
// LP ids with one LP per worker: node 0 hosts 0 and 1, node 1 hosts 2 and
// 3. Lookahead is 1, so a worker whose peer holds an event at t is
// blocked on everything at or after t+1.
func TestTouchSites(t *testing.T) {
	one := cluster.Topology{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 1}
	two := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 1}
	lone := cluster.Topology{Nodes: 2, WorkersPerNode: 1, LPsPerWorker: 1}
	three := cluster.Topology{Nodes: 3, WorkersPerNode: 1, LPsPerWorker: 1}
	self := func(id event.LPID, at vtime.Time, kind uint16) send { return send{id, at, kind} }
	for _, c := range []struct {
		name string
		top  cluster.Topology
		end  vtime.Time
		lps  map[event.LPID]lpScript
		hit  func(r *stats.Run) bool
	}{
		{
			// Worker 0 spends 20 µs on its event at 1; worker 1 holds one at
			// 2.5 and is blocked below 1+1. The batch's end — nothing else
			// happens at that instant — lifts worker 0's floor to 9 and with
			// it worker 1's bound.
			name: "processBatch/end", top: one, end: 10,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1), self(0, 9, 0)}, on: map[uint16]act{1: {spin: 20_000}}},
				1: {init: []send{self(1, 2.5, 0)}},
			},
			hit: func(r *stats.Run) bool { return r.Workers.Committed == 3 },
		},
		{
			// Worker 0 takes two events, at 1 and 1.25, in one batch. Worker 1
			// holds one at 2.125: blocked while the first is in hand (bound 2),
			// free the instant the second is popped (bound 2.25) — 20 µs
			// before the batch ends.
			name: "processBatch/pop", top: one, end: 10,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1), self(0, 1.25, 1)}, on: map[uint16]act{1: {spin: 20_000}}},
				1: {init: []send{self(1, 2.125, 0)}},
			},
			hit: func(r *stats.Run) bool { return r.Workers.Committed == 3 },
		},
		{
			// Worker 0's event sends to its own LP: a push into its pending
			// queue between two long spins, under worker 1's eyes.
			name: "route/local", top: one, end: 10,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1)}, on: map[uint16]act{
					1: {spin: 20_000, sends: []send{self(0, 0.5, 2)}},
					2: {spin: 20_000},
				}},
				1: {init: []send{self(1, 2.25, 0)}},
			},
			hit: func(r *stats.Run) bool { return r.Workers.SentLocal == 1 },
		},
		{
			// Worker 0 deposits an event for LP 1 at 2 into worker 1's inbox,
			// then spins on: worker 1 drains it (both edges), is still
			// blocked — its bound is 2 — and goes idle again with one more
			// event pending.
			name: "deposit+drainInbox", top: one, end: 10,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1)}, on: map[uint16]act{
					1: {spin: 5_000, sends: []send{{1, 1, 0}, self(0, 0, 2)}},
					2: {spin: 20_000},
				}},
				1: {init: []send{self(1, 6, 0)}},
			},
			hit: func(r *stats.Run) bool { return r.Workers.SentRegion == 1 },
		},
		{
			// One worker per node: nothing but the peer's promise bounds it.
			// Node 1's worker idles until the null message from node 0 raises
			// chanIn; so does node 0's.
			name: "recvInbound/chanIn", top: lone, end: 4,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1)}, on: map[uint16]act{1: {spin: 3_000}}},
				1: {init: []send{self(1, 1.5, 1)}, on: map[uint16]act{1: {spin: 3_000}}},
			},
			hit: func(r *stats.Run) bool { return r.NullMessages > 0 },
		},
		{
			// Three nodes, one worker each. Node 1 spins 20 µs on its event
			// at 1 while node 0 works through three events just above it,
			// so the promises node 2's worker idles on climb past each
			// other: a raise of the entry that was not the least alone
			// leaves every bound where it was and asks nobody, while a
			// raise of the least, judged against the old value and not the
			// new, must ask node 2's parked worker again.
			name: "recvInbound/chanIn/three nodes", top: three, end: 10,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1.2, 1), self(0, 1.4, 1), self(0, 1.6, 1), self(0, 9, 0)}, on: map[uint16]act{1: {spin: 3_000}}},
				1: {init: []send{self(1, 1, 1), self(1, 3, 0)}, on: map[uint16]act{1: {spin: 20_000}}},
				2: {init: []send{self(2, 2.5, 0)}},
			},
			hit: func(r *stats.Run) bool { return r.NullMessages > 0 && r.Workers.Committed == 7 },
		},
		{
			// LP 0's event sends to LP 2 on the other node: an outbox deposit
			// and the MPI thread's take, with both MPI threads quiet between
			// promises; then every worker exits, mid-pass for some MPI thread,
			// and the node's last promise must leave in that same pass.
			name: "route/remote+flush+exit", top: two, end: 6,
			lps: map[event.LPID]lpScript{
				0: {init: []send{self(0, 1, 1)}, on: map[uint16]act{1: {spin: 7_000, sends: []send{{2, 1.5, 2}}}}},
				1: {init: []send{self(1, 3, 2)}, on: map[uint16]act{2: {spin: 11_000}}},
				2: {on: map[uint16]act{2: {spin: 13_000}}},
				3: {init: []send{self(3, 2, 2)}, on: map[uint16]act{2: {spin: 500}}},
			},
			hit: func(r *stats.Run) bool { return r.Workers.SentRemote == 1 && r.Workers.Committed == 4 },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, refTrace := touchRun(t, c.top, c.end, c.lps, true, 0)
			got, gotTrace := touchRun(t, c.top, c.end, c.lps, false, 2*len(refTrace))
			if !c.hit(got) {
				t.Fatalf("the script did not do what the row is about: %+v", got.Workers)
			}
			if got.Kernel.Skipped == 0 || got.Kernel.Rechecks == 0 {
				t.Errorf("no parked thread was in play: %d steps skipped, %d rechecks", got.Kernel.Skipped, got.Kernel.Rechecks)
			}
			if got.Kernel.Steps == 0 || ref.Kernel.Steps != 0 {
				t.Fatalf("steps: stepped run %d, literal run %d", got.Kernel.Steps, ref.Kernel.Steps)
			}
			a, b := *ref, *got
			a.Kernel, b.Kernel = stats.Run{}.Kernel, stats.Run{}.Kernel
			if a != b || got.Kernel.Dispatches != ref.Kernel.Dispatches {
				t.Errorf("statistics differ\nliteral %+v\nstepped %+v", *ref, *got)
			}
			if !bytes.Equal(refTrace, gotTrace) {
				t.Errorf("traces differ (%d and %d bytes): a thread resumed at another instant", len(refTrace), len(gotTrace))
			}
		})
	}
}
