package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func newWorld(env *sim.Env, n int) *World {
	return NewWorld(env, n, fabric.Params{Latency: 100, BytesPerSec: 0}, Costs{
		Send: 10, Recv: 5, Poll: 1, LockHold: 0,
	})
}

func TestSendRecvFrom(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 2)
	var got Message
	env.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, TagUser, 64, "hello")
	})
	env.Spawn("r1", func(p *sim.Proc) {
		got = w.Rank(1).RecvFrom(p, 0, TagUser)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "hello" || got.Src != 0 || got.Size != 64 {
		t.Errorf("got %+v", got)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 2)
	env.Spawn("r0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send to self did not panic")
			}
		}()
		w.Rank(0).Send(p, 0, TagUser, 8, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 2)
	env.Spawn("r0", func(p *sim.Proc) {
		p.Advance(50)
		w.Rank(0).Send(p, 1, TagUser, 8, 42)
	})
	env.Spawn("r1", func(p *sim.Proc) {
		if _, ok := w.Rank(1).TryRecv(p, TagUser); ok {
			t.Error("TryRecv found a message before any send")
		}
		p.Advance(1000)
		m, ok := w.Rank(1).TryRecv(p, TagUser)
		if !ok || m.Payload != 42 {
			t.Errorf("TryRecv after delivery: %+v ok=%v", m, ok)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvFromMatchesSourceAndTag(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 3)
	var order []string
	env.Spawn("r1", func(p *sim.Proc) {
		w.Rank(1).Send(p, 0, TagUser, 8, "from1")
	})
	env.Spawn("r2", func(p *sim.Proc) {
		w.Rank(2).Send(p, 0, TagUser+1, 8, "from2-other-tag")
		w.Rank(2).Send(p, 0, TagUser, 8, "from2")
	})
	env.Spawn("r0", func(p *sim.Proc) {
		// Ask for rank 2 first even though rank 1's message arrives too.
		m := w.Rank(0).RecvFrom(p, 2, TagUser)
		order = append(order, m.Payload.(string))
		m = w.Rank(0).RecvFrom(p, 1, TagUser)
		order = append(order, m.Payload.(string))
		m = w.Rank(0).RecvFrom(p, 2, TagUser+1)
		order = append(order, m.Payload.(string))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"from2", "from1", "from2-other-tag"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBarrierAllRanks(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		env := sim.NewEnv()
		w := newWorld(env, n)
		released := make([]sim.Time, n)
		for i := 0; i < n; i++ {
			i := i
			env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				p.Advance(sim.Time(i * 1000)) // stagger arrivals
				w.Rank(i).Barrier(p)
				released[i] = p.Now()
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		last := sim.Time((n - 1) * 1000)
		for i, ts := range released {
			if ts < last {
				t.Errorf("n=%d: rank %d released at %v before last arrival %v", n, i, ts, last)
			}
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 3)
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			for round := 0; round < 10; round++ {
				p.Advance(sim.Time(1 + i*7))
				w.Rank(i).Barrier(p)
				counts[i]++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 10 {
			t.Errorf("rank %d completed %d rounds", i, c)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		env := sim.NewEnv()
		w := newWorld(env, n)
		results := make([]int64, n)
		for i := 0; i < n; i++ {
			i := i
			env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				results[i] = w.Rank(i).AllreduceSum(p, int64(i+1))
			})
		}
		if err := env.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := int64(n * (n + 1) / 2)
		for i, r := range results {
			if r != want {
				t.Errorf("n=%d rank %d: sum = %d, want %d", n, i, r, want)
			}
		}
	}
}

func TestAllreduceMin(t *testing.T) {
	env := sim.NewEnv()
	n := 4
	w := newWorld(env, n)
	vals := []float64{3.5, 1.25, 9, 2}
	results := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			results[i] = w.Rank(i).AllreduceMin(p, vals[i])
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != 1.25 {
			t.Errorf("rank %d: min = %v, want 1.25", i, r)
		}
	}
}

func TestConsecutiveCollectivesDoNotMix(t *testing.T) {
	env := sim.NewEnv()
	n := 3
	w := newWorld(env, n)
	sums := make([][]int64, n)
	for i := 0; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			// Rank 2 races ahead into the next round while rank 0 is slow.
			for round := 0; round < 5; round++ {
				p.Advance(sim.Time((3 - i) * 500))
				sums[i] = append(sums[i], w.Rank(i).AllreduceSum(p, int64(round*10+i)))
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		want := int64(round*10) + int64(round*10+1) + int64(round*10+2)
		for i := 0; i < n; i++ {
			if sums[i][round] != want {
				t.Errorf("round %d rank %d: %d, want %d", round, i, sums[i][round], want)
			}
		}
	}
}

func TestRingCirculation(t *testing.T) {
	env := sim.NewEnv()
	n := 4
	w := newWorld(env, n)
	var total int
	env.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).SendRing(p, TagUser, 16, 1)
		for {
			if m, ok := w.Rank(0).TryRecvRing(p, TagUser); ok {
				total = m.Payload.(int)
				return
			}
			p.Advance(10)
		}
	})
	for i := 1; i < n; i++ {
		i := i
		env.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			for {
				if m, ok := w.Rank(i).TryRecvRing(p, TagUser); ok {
					w.Rank(i).SendRing(p, TagUser, 16, m.Payload.(int)+1)
					return
				}
				p.Advance(10)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Errorf("token accumulated %d, want %d", total, n)
	}
}

func TestMPILockSerializesThreads(t *testing.T) {
	// Two simulated threads of rank 0 send at the same instant: the MPI
	// lock must serialize their Send CPU time (10 each).
	env := sim.NewEnv()
	w := newWorld(env, 2)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		env.Spawn(fmt.Sprintf("thr%d", i), func(p *sim.Proc) {
			w.Rank(0).Send(p, 1, TagUser, 8, nil)
			done = append(done, p.Now())
		})
	}
	env.Spawn("sink", func(p *sim.Proc) {
		w.Rank(1).RecvFrom(p, 0, TagUser)
		w.Rank(1).RecvFrom(p, 0, TagUser)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != 10 || done[1] != 20 {
		t.Errorf("send completion times = %v, want [10 20]", done)
	}
	if _, contended, _ := w.Rank(0).LockStats(); contended != 1 {
		t.Errorf("contended = %d, want 1", contended)
	}
}

// TestTakeMidStashZeroesVacatedSlot: removing a message out of arrival
// order shifts the tail down; the slot it vacates must not keep the last
// message's payload reachable beyond len(stash).
func TestTakeMidStashZeroesVacatedSlot(t *testing.T) {
	env := sim.NewEnv()
	w := newWorld(env, 2)
	r := w.Rank(1)
	env.Spawn("r0", func(p *sim.Proc) {
		for i, tag := range []int{TagUser, TagUser + 1, TagUser, TagUser + 1} {
			w.Rank(0).Send(p, 1, tag, 8, fmt.Sprintf("payload-%d", i))
		}
	})
	env.Spawn("r1", func(p *sim.Proc) {
		p.Advance(1000) // all four are stashed
		m, ok := r.TryRecv(p, TagUser+1)
		if !ok || m.Payload != "payload-1" {
			t.Fatalf("mid-stash receive: %+v ok=%v", m, ok)
		}
		if r.head != 0 || len(r.stash) != 3 {
			t.Fatalf("head %d, %d stashed after a mid-stash removal, want 0 and 3", r.head, len(r.stash))
		}
		for i, m := range r.stash[len(r.stash):cap(r.stash)] {
			if m != (Message{}) {
				t.Errorf("slot %d beyond len(stash) still holds %+v", len(r.stash)+i, m)
			}
		}
		for i, want := range []string{"payload-0", "payload-2", "payload-3"} {
			if r.stash[i].Payload != want {
				t.Errorf("stash[%d] = %+v, want %s", i, r.stash[i], want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// probeOutcome is everything a receiver's polling leaves behind.
type probeOutcome struct {
	End                 sim.Time
	Log                 []string // every poll's instant and result
	Acquires, Contended int64
	LockWait            sim.Time
	Dispatches          uint64
}

// runProber polls rank 1 of a three-rank world — alternately for any
// source and for the ring predecessor — against a sender whose messages
// arrive before a poll, between polls and while a poll's lock-hold and
// probe cost elapse, and a second thread of the rank contending for the
// MPI lock. With halves false a poll is TryRecv/TryRecvRing; with halves
// true it is the probe taken apart the way a Poll step takes it.
func runProber(t *testing.T, halves bool) probeOutcome {
	env := sim.NewEnv()
	costs := Costs{Send: 10, Recv: 5, Poll: 50, LockHold: 30}
	w := NewWorld(env, 3, fabric.Params{Latency: 100}, costs)
	r := w.Rank(1)
	var out probeOutcome
	hits, misses, inWindow := 0, 0, 0
	env.Spawn("r0", func(p *sim.Proc) {
		// Gaps off the prober's 200 ns period, so deliveries fall in every
		// phase of it: lock held and probing (80 of the 200), or not.
		for i := 0; i < 10; i++ {
			p.Advance(470 + sim.Time(i%5)*37)
			w.Rank(0).Send(p, 1, TagUser, 8, i)
		}
	})
	env.Spawn("r2", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(1130)
			w.Rank(2).Send(p, 1, TagUser, 8, 100+i)
		}
	})
	env.Spawn("r1/other", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			p.Advance(690)
			r.TryRecv(p, TagUser+7)
		}
	})
	env.Spawn("r1/prober", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			src := AnySource
			if i%3 == 2 {
				src = r.Prev()
			}
			var m Message
			var ok bool
			switch {
			case !halves && src == AnySource:
				m, ok = r.TryRecv(p, TagUser)
			case !halves:
				m, ok = r.TryRecvRing(p, TagUser)
			case !r.TryProbe(p):
				m, ok = r.TryRecvFrom(p, src, TagUser) // the lock is held: queue for it
			default:
				stashed := r.find(src, TagUser) >= 0
				p.Advance(costs.LockHold)
				p.Advance(costs.Poll)
				if !r.EndProbe(p, src, TagUser) {
					if !stashed {
						inWindow++
					}
					m, ok = r.TryRecvFrom(p, src, TagUser) // paid for: only the receive is left
				}
			}
			if ok {
				hits++
			} else {
				misses++
			}
			out.Log = append(out.Log, fmt.Sprintf("%d src=%d %v %v", p.Now(), src, m.Payload, ok))
			p.Advance(120)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 || halves && inWindow == 0 {
		t.Fatalf("%d hits, %d misses, %d arrivals inside a probe: the schedule does not cover all three\n%v", hits, misses, inWindow, out.Log)
	}
	out.End = env.Now()
	out.Acquires, out.Contended, out.LockWait = r.LockStats()
	out.Dispatches = env.Counters().Dispatches
	return out
}

// TestProbeHalvesMatchTryRecv: TryProbe, the two costs, then EndProbe
// and, when it finds a match, the TryRecvFrom that completes it are
// TryRecv and TryRecvRing event for event — same results at the same
// instants, same lock statistics, same number of kernel events — whether
// the poll misses, hits, or the message lands while the probe's cost
// elapses.
func TestProbeHalvesMatchTryRecv(t *testing.T) {
	whole, halves := runProber(t, false), runProber(t, true)
	if !reflect.DeepEqual(whole, halves) {
		t.Errorf("TryRecv\n%+v\nprobe halves\n%+v", whole, halves)
	}
	if whole.Contended == 0 {
		t.Error("no poll ever queued for the MPI lock: the test does not exercise it")
	}
}

// TestPaidProbeIsCompletedAsMade: a probe that found its match is owed the
// receive of the same (src, tag); the owner polling for anything else
// first is a programming error, and another thread's poll just queues.
func TestPaidProbeIsCompletedAsMade(t *testing.T) {
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.Params{Latency: 100}, DefaultCosts())
	r := w.Rank(1)
	env.Spawn("r0", func(p *sim.Proc) { w.Rank(0).Send(p, 1, TagUser, 8, "x") })
	env.Spawn("r1/other", func(p *sim.Proc) {
		p.Advance(sim.Millisecond + 1)
		if _, ok := r.TryRecv(p, TagUser); ok {
			t.Error("the message went to a thread that queued behind the paid probe")
		}
	})
	env.Spawn("r1", func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		if !r.TryProbe(p) || r.EndProbe(p, AnySource, TagUser) {
			t.Fatal("probe found the lock taken or the stash empty")
		}
		p.Advance(10) // r1/other arrives and queues for the lock
		func() {
			defer func() {
				if recover() == nil {
					t.Error("polling another tag with a paid probe outstanding did not panic")
				}
			}()
			r.TryRecv(p, TagUser+1)
		}()
		start := p.Now()
		if m, ok := r.TryRecv(p, TagUser); !ok || m.Payload != "x" {
			t.Errorf("completion received %v, %v", m, ok)
		}
		if d := p.Now() - start; d != DefaultCosts().Recv {
			t.Errorf("completion took %v, want MPI_Recv's %v alone", d, DefaultCosts().Recv)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTryRecvMiss: one poll that matches nothing per op, past a few
// stashed messages of another tag — what an MPI thread's idle pass makes
// three of.
func BenchmarkTryRecvMiss(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	w := NewWorld(env, 2, fabric.EthernetDefaults(), DefaultCosts())
	env.Spawn("r0", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			w.Rank(0).Send(p, 1, TagUser+1, 8, i)
		}
	})
	env.Spawn("r1", func(p *sim.Proc) {
		p.Advance(sim.Millisecond)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Rank(1).TryRecv(p, TagUser)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
