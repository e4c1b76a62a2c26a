package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAdvanceOrdering(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		p.Advance(30)
		order = append(order, fmt.Sprintf("a@%d", p.Now()))
	})
	env.Spawn("b", func(p *Proc) {
		p.Advance(10)
		order = append(order, fmt.Sprintf("b@%d", p.Now()))
		p.Advance(30)
		order = append(order, fmt.Sprintf("b@%d", p.Now()))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@10", "a@30", "b@40"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if env.Now() != 40 {
		t.Fatalf("final time = %d, want 40", env.Now())
	}
}

func TestAdvanceZeroYields(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Advance(0)
		order = append(order, "a2")
	})
	env.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields at t=0; b (already scheduled) runs before a resumes.
	want := "a1,b1,a2"
	got := order[0] + "," + order[1] + "," + order[2]
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestSameTimeFIFO pins the key rule (Key) on events due at one instant.
// Ten processes spawned at 0 run in spawn order (zero-delay filings, first
// come first served), and each sleeps 5; so does a callback the scheduler
// filed before Run. At 5 those eleven filings, made at one instant by
// eleven filers, run in the order of the filers' ids as perm permutes them
// at 0. Then each process yields with Advance(0), and the processes run
// again in the order they yielded in, after every filing due at 5 that was
// filed earlier. One filer's filings due at one instant run in the order
// it made them: the first process's three callbacks at 7, and the three
// the first of those files for 10.
func TestSameTimeFIFO(t *testing.T) {
	env := NewEnv()
	var order []string
	note := func(what string) { order = append(order, fmt.Sprintf("%d:%s", env.Now(), what)) }
	for i := 0; i < 10; i++ {
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			note(p.Name())
			if i == 0 {
				for k := 0; k < 3; k++ {
					env.After(7, func() {
						note(fmt.Sprintf("a%d", k))
						for j := 0; k == 0 && j < 3; j++ {
							env.After(3, func() { note(fmt.Sprintf("b%d", j)) })
						}
					})
				}
			}
			p.Advance(5)
			note(p.Name())
			p.Advance(0)
			note(p.Name())
		})
	}
	env.After(5, func() { note("cb") })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	// What the key rule says, worked out from perm.
	ids := []uint32{schedID, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sort.Slice(ids, func(a, b int) bool { return perm(ids[a], 0) < perm(ids[b], 0) })
	var at5 []string
	for _, id := range ids {
		if id == schedID {
			at5 = append(at5, "5:cb")
		} else {
			at5 = append(at5, fmt.Sprintf("5:p%d", id))
		}
	}
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("0:p%d", i))
	}
	want = append(want, at5...)
	for _, s := range at5 {
		if s != "5:cb" {
			want = append(want, s)
		}
	}
	want = append(want, "7:a0", "7:a1", "7:a2", "10:b0", "10:b1", "10:b2")
	got := strings.Join(order, " ")
	if got != strings.Join(want, " ") {
		t.Fatalf("same-time order\n got %s\nwant %s", got, strings.Join(want, " "))
	}
	// The same order, written out: a change to perm shows here too.
	const pinned = "0:p0 0:p1 0:p2 0:p3 0:p4 0:p5 0:p6 0:p7 0:p8 0:p9 " +
		"5:p0 5:p7 5:p1 5:p9 5:p5 5:p2 5:cb 5:p8 5:p4 5:p6 5:p3 " +
		"5:p0 5:p7 5:p1 5:p9 5:p5 5:p2 5:p8 5:p4 5:p6 5:p3 " +
		"7:a0 7:a1 7:a2 10:b0 10:b1 10:b2"
	if got != pinned {
		t.Errorf("same-time order moved:\n got %s\nwant %s", got, pinned)
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var fired []Time
	env.Spawn("a", func(p *Proc) {
		env.After(100, func() { fired = append(fired, env.Now()) })
		env.After(50, func() { fired = append(fired, env.Now()) })
		p.Advance(200)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 50 || fired[1] != 100 {
		t.Fatalf("callbacks fired at %v, want [50 100]", fired)
	}
}

// TestAfterSlabReusesSlots: heap entries name callbacks by slab index. A
// callback's slot is vacated before it runs, so chains that reschedule
// themselves — the retransmission-timer shape — keep the slab at the
// number of callbacks pending at once, and each still runs its own
// closure at its own time.
func TestAfterSlabReusesSlots(t *testing.T) {
	env := NewEnv()
	const chains, links = 3, 500
	fired := make([]int, chains)
	for c := 0; c < chains; c++ {
		c := c
		var link func()
		link = func() {
			if want := Time(fired[c]+1) * Time(10+c); env.Now() != want {
				t.Fatalf("chain %d link %d fired at %v, want %v", c, fired[c], env.Now(), want)
			}
			if fired[c]++; fired[c] < links {
				env.After(Time(10+c), link)
			}
		}
		env.After(Time(10+c), link)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for c, n := range fired {
		if n != links {
			t.Errorf("chain %d fired %d links, want %d", c, n, links)
		}
	}
	if len(env.cbs) != chains {
		t.Errorf("slab grew to %d slots for %d concurrent callbacks", len(env.cbs), chains)
	}
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("heap entry is %d bytes, want 24", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Advance(-1) did not panic")
			}
			p.Advance(1) // leave the process cleanly
		}()
		p.Advance(-1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	env := NewEnv()
	m := &Mutex{Name: "m"}
	var events []string
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(Time(i)) // stagger arrival: p0 first
			m.Lock(p)
			events = append(events, fmt.Sprintf("acq%d@%d", i, p.Now()))
			p.Advance(100)
			m.Unlock(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"acq0@0", "acq1@100", "acq2@200"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if m.Contended != 2 {
		t.Errorf("Contended = %d, want 2", m.Contended)
	}
	if m.WaitTime != (100-1)+(200-2) {
		t.Errorf("WaitTime = %d, want %d", m.WaitTime, (100-1)+(200-2))
	}
}

func TestMutexHoldCost(t *testing.T) {
	env := NewEnv()
	m := &Mutex{Name: "m", HoldCost: 7}
	env.Spawn("a", func(p *Proc) {
		m.Lock(p)
		if p.Now() != 7 {
			t.Errorf("after Lock, now = %d, want 7", p.Now())
		}
		m.Unlock(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexTryAcquire(t *testing.T) {
	env := NewEnv()
	m := &Mutex{Name: "m"}
	env.Spawn("a", func(p *Proc) {
		if !m.TryAcquire(p) {
			t.Error("first TryAcquire failed")
		}
		p.Advance(10)
		m.Unlock(p)
	})
	env.Spawn("b", func(p *Proc) {
		p.Advance(5)
		if m.TryAcquire(p) {
			t.Error("TryAcquire succeeded while held")
		}
		p.Advance(10)
		if !m.TryAcquire(p) {
			t.Error("TryAcquire failed after release")
		}
		m.Unlock(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockByNonHolderPanics(t *testing.T) {
	env := NewEnv()
	m := &Mutex{Name: "m"}
	env.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Unlock by non-holder did not panic")
			}
		}()
		m.Unlock(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	env := NewEnv()
	b := NewBarrier("b", 4)
	var released []Time
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(Time(10 * i))
			b.Wait(p)
			released = append(released, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range released {
		if ts != 30 {
			t.Fatalf("released at %v, want all at 30", released)
		}
	}
	// Idle (wait) time: 30 + 20 + 10 + 0.
	if b.WaitTime != 60 {
		t.Errorf("WaitTime = %d, want 60", b.WaitTime)
	}
	if b.Generation() != 1 {
		t.Errorf("Generation = %d, want 1", b.Generation())
	}
}

func TestBarrierCyclic(t *testing.T) {
	env := NewEnv()
	b := NewBarrier("b", 3)
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(Time(1 + i))
				b.Wait(p)
				counts[i]++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 5 {
			t.Fatalf("p%d completed %d rounds, want 5", i, c)
		}
	}
	if b.Generation() != 5 {
		t.Errorf("Generation = %d, want 5", b.Generation())
	}
}

func TestQueueBlockingGet(t *testing.T) {
	env := NewEnv()
	q := &Queue{Name: "q"}
	var got any
	var when Time
	env.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		when = p.Now()
	})
	env.Spawn("producer", func(p *Proc) {
		p.Advance(42)
		q.Put(p, "hello")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || when != 42 {
		t.Fatalf("got %v at %d, want hello at 42", got, when)
	}
}

func TestQueueFIFOAndTryGet(t *testing.T) {
	env := NewEnv()
	q := &Queue{Name: "q"}
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
		}
		for i := 0; i < 5; i++ {
			v, ok := q.TryGet()
			if !ok || v.(int) != i {
				t.Errorf("TryGet #%d = %v,%v", i, v, ok)
			}
		}
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.MaxLen != 5 {
		t.Errorf("MaxLen = %d, want 5", q.MaxLen)
	}
}

func TestQueuePutNBFromCallback(t *testing.T) {
	env := NewEnv()
	q := &Queue{Name: "q"}
	var got any
	env.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		if p.Now() != 99 {
			t.Errorf("woke at %d, want 99", p.Now())
		}
	})
	env.Spawn("arm", func(p *Proc) {
		env.After(99, func() { q.PutNB(env, 7) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %v, want 7", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	q := &Queue{Name: "never"}
	env.Spawn("stuck", func(p *Proc) {
		q.Get(p)
	})
	err := env.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 {
		t.Fatalf("deadlocked procs = %v", de.Procs)
	}
}

func TestLivelockDetection(t *testing.T) {
	env := NewEnv()
	env.LivelockLimit = 1000
	env.Spawn("spinner", func(p *Proc) {
		for {
			p.Advance(0)
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("virtual livelock did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, `"spinner"`) {
			t.Errorf("livelock panic %q does not name the spinning process", msg)
		}
	}()
	_ = env.Run()
}

func TestLivelockNamesRetransmitLoop(t *testing.T) {
	// A zero-delay retransmission timer that re-arms itself from callback
	// context never advances time: the livelock detector must fire and the
	// panic must identify the process that armed the loop — not just the
	// anonymous callbacks, which dominate the dispatch stream.
	env := NewEnv()
	env.LivelockLimit = 5000
	var rearm func()
	rearm = func() {
		env.After(0, rearm) // zero RTO: retransmit forever at one instant
	}
	env.Spawn("nic-0", func(p *Proc) {
		env.After(0, rearm)
	})
	env.Spawn("bystander", func(p *Proc) {
		p.Advance(10)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("virtual livelock did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"virtual livelock", `"nic-0 (callback)"`} {
			if !strings.Contains(msg, want) {
				t.Errorf("livelock panic %q missing %q", msg, want)
			}
		}
	}()
	_ = env.Run()
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childTime Time
	env.Spawn("parent", func(p *Proc) {
		p.Advance(5)
		env.Spawn("child", func(c *Proc) {
			childTime = c.Now()
		})
		p.Advance(5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 5 {
		t.Fatalf("child started at %d, want 5", childTime)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("Seconds = %v, want 2", s)
	}
}

// TestDeterminismProperty: any schedule of advances produces the same event
// ordering on repeated runs.
func TestDeterminismProperty(t *testing.T) {
	run := func(delays []uint16) string {
		env := NewEnv()
		var log []string
		for i, d := range delays {
			i, d := i, d
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Advance(Time(d % 100))
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				p.Advance(Time(d % 37))
				log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, s := range log {
			out += s + ";"
		}
		return out
	}
	prop := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		return run(delays) == run(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEventHeapProperty: the scheduler pops events in key order for
// arbitrary insertion sequences.
func TestEventHeapProperty(t *testing.T) {
	prop := func(times []uint32) bool {
		var h eventHeap
		for i, tt := range times {
			h.push(event{at: Time(tt % 1000), filed: Time(tt % 7), tie: uint32(i)})
		}
		var prev event
		first := true
		for len(h) > 0 {
			e := h.pop()
			if !first {
				if e.before(&prev) {
					return false
				}
			}
			prev, first = e, false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCondBroadcast(t *testing.T) {
	env := NewEnv()
	var c Cond
	c.Name = "c"
	var woke []Time
	for i := 0; i < 3; i++ {
		env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	env.Spawn("caster", func(p *Proc) {
		p.Advance(40)
		c.Broadcast(env)
		p.Advance(10)
		c.Broadcast(env) // no waiters: no-op
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d, want 3", len(woke))
	}
	for _, ts := range woke {
		if ts != 40 {
			t.Fatalf("woke at %v, want 40", woke)
		}
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	before := baselineGoroutines()
	env := NewEnv()
	env.Spawn("bomb", func(p *Proc) {
		p.Advance(5)
		panic("boom")
	})
	env.Spawn("bystander", func(p *Proc) { p.Advance(10) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to Run")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") || !strings.Contains(s, "bomb") {
			t.Errorf("panic value = %v", r)
		}
		// The bystander was parked mid-Advance; Run unwound it on the way out.
		if env.Live() != 0 {
			t.Errorf("%d live processes after the panic, want 0", env.Live())
		}
		waitForGoroutines(t, before)
	}()
	_ = env.Run()
}
