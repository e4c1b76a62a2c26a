package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The dispatch-order program: a seeded random workload over every kernel
// primitive, logging (now, process name) each time a process or callback
// gets control and after every step it takes. The kernel's contract is
// that this log is a function of the program alone, so the constants in
// TestDispatchOrderPinned pin the dispatch order, which the key rule (Key)
// decides, across any change to how processes are switched.
const (
	orderWorkers = 12
	orderRounds  = 6
	orderSteps   = 10
	orderSinks   = 2
)

type orderRun struct {
	env   *Env
	log   []string
	stats string // every primitive's counters, rendered
	err   error
}

// runOrderProgram runs the program for seed. When the log reaches
// cancelAt entries the program cancels its own environment (never, if
// cancelAt < 0), so the cancellation point is deterministic too. A
// non-nil idle adds one idler per mutex, polling it through idle; the
// pinned program has none.
func runOrderProgram(seed uint64, cancelAt int, idle func(p *Proc, step Stepper)) orderRun {
	env := NewEnv()
	var log []string

	rng := seed*0x9E3779B97F4A7C15 + 1
	rnd := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	// Few distinct delays, so equal-timestamp ties are the common case.
	delays := []Time{0, 0, 1, 2, 5, 10, 10, 25}
	delay := func() Time { return delays[rnd(len(delays))] }

	resumed := func(who string) {
		log = append(log, fmt.Sprintf("%d %s", env.Now(), who))
		if len(log) == cancelAt {
			env.Cancel()
		}
	}

	mus := []*Mutex{{Name: "m0"}, {Name: "m1", HoldCost: 7}, {Name: "m2", HoldCost: 3}}
	bar := NewBarrier("round", orderWorkers)
	tickCond := &Cond{Name: "tick"}
	work := &Queue{Name: "work"}     // workers, children and callbacks put; sinks get
	tokens := &Queue{Name: "tokens"} // the ticker puts; workers get
	// One one-shot latch per round: a bool and the Cond its waiters park on.
	raised := make([]bool, orderRounds)
	latches := make([]Cond, orderRounds)
	raise := func(r int) {
		raised[r] = true
		latches[r].Broadcast(env)
	}
	active := orderWorkers

	// The ticker is a self-re-arming callback that wakes processes two
	// ways; it lives exactly as long as a worker might wait on it.
	var tick func()
	tick = func() {
		resumed("cb:tick")
		tickCond.Broadcast(env)
		tokens.PutNB(env, env.Now())
		if active > 0 {
			env.After(13, tick)
		}
	}

	child := func(name string) func(*Proc) {
		return func(c *Proc) {
			resumed(name)
			c.Advance(delay())
			resumed(name)
			mus[0].Lock(c)
			resumed(name)
			c.Advance(1)
			resumed(name)
			mus[0].Unlock(c)
			if _, ok := tokens.TryGet(); ok {
				work.Put(c, name)
			}
		}
	}

	worker := func(i int, name string) func(*Proc) {
		return func(p *Proc) {
			resumed(name)
			if i == 0 {
				env.After(13, tick)
			}
			children := 0
			for r := 0; r < orderRounds; r++ {
				// This round's latch is raised by one worker before it can
				// block on anything: directly, or through a callback.
				if r%orderWorkers == i {
					r := r
					if r%2 == 0 {
						raise(r)
					} else {
						env.After(4, func() {
							resumed("cb:flag")
							raise(r)
						})
					}
				}
				for s := 0; s < orderSteps; s++ {
					switch rnd(12) {
					case 0, 1:
						p.Advance(delay())
					case 2:
						p.Advance(0)
					case 3:
						m := mus[rnd(len(mus))]
						m.Lock(p)
						resumed(name)
						p.Advance(delay())
						m.Unlock(p)
					case 4: // nested, always m0 then m1
						mus[0].Lock(p)
						resumed(name)
						mus[1].Lock(p)
						resumed(name)
						p.Advance(delay())
						mus[1].Unlock(p)
						mus[0].Unlock(p)
					case 5:
						m := mus[rnd(len(mus))]
						if m.TryAcquire(p) {
							if m.HoldCost > 0 {
								p.Advance(m.HoldCost)
							}
							resumed(name)
							p.Advance(delay())
							m.Unlock(p)
						}
					case 6:
						tickCond.Wait(p)
					case 7:
						work.Put(p, name)
					case 8:
						tokens.Get(p)
					case 9:
						if !raised[r] {
							latches[r].Wait(p)
						}
					case 10:
						env.After(delay(), func() {
							resumed("cb:" + name)
							work.PutNB(env, name)
						})
					case 11:
						cname := fmt.Sprintf("%s.c%d", name, children)
						children++
						env.Spawn(cname, child(cname))
					}
					resumed(name)
				}
				bar.Wait(p)
				resumed(name)
			}
			active--
			if active == 0 {
				for i := 0; i < orderSinks; i++ {
					work.Put(p, nil)
				}
			}
		}
	}

	sink := func(name string) func(*Proc) {
		return func(p *Proc) {
			resumed(name)
			for work.Get(p) != nil {
				resumed(name)
				p.Advance(delay())
				resumed(name)
			}
		}
	}

	// An idler polls its mutex the way an idle worker polls its inbox:
	// take the lock if it is free, let its entry cost pass, release it,
	// sleep, and start over, all as steps of one idle call; a pass that
	// finds the lock held goes through the blocking Lock instead.
	idler := func(name string, m *Mutex) func(*Proc) {
		return func(p *Proc) {
			holding := false
			step := stepFunc(func() Time {
				if !holding {
					if active == 0 || !m.TryAcquire(p) {
						return -1
					}
					holding = true
					resumed(name)
					if m.HoldCost > 0 {
						return m.HoldCost
					}
				}
				holding = false
				m.Unlock(p)
				resumed(name)
				return 1 + delay()
			})
			resumed(name)
			for active > 0 {
				m.Lock(p)
				resumed(name)
				p.Advance(delay())
				m.Unlock(p)
				idle(p, step)
			}
		}
	}

	for i := 0; i < orderWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		env.Spawn(name, worker(i, name))
	}
	for i := 0; i < orderSinks; i++ {
		name := fmt.Sprintf("sink%d", i)
		env.Spawn(name, sink(name))
	}
	if idle != nil {
		for i, m := range mus {
			name := fmt.Sprintf("idler%d", i)
			env.Spawn(name, idler(name, m))
		}
	}
	err := env.Run()

	var st strings.Builder
	for _, m := range mus {
		fmt.Fprintf(&st, "%s wait=%d acquires=%d contended=%d; ", m.Name, m.WaitTime, m.Acquires, m.Contended)
	}
	fmt.Fprintf(&st, "barrier wait=%d rounds=%d gen=%d; ", bar.WaitTime, bar.Rounds, bar.Generation())
	fmt.Fprintf(&st, "work max=%d len=%d; tokens max=%d len=%d; procs=%d",
		work.MaxLen, work.Len(), tokens.MaxLen, tokens.Len(), len(env.procs))
	return orderRun{env: env, log: log, stats: st.String(), err: err}
}

func TestDispatchOrderPinned(t *testing.T) {
	pinned := []struct {
		seed  uint64
		now   Time
		n     int
		sha   string
		stats string
	}{
		{seed: 20191, now: 1573, n: 1776,
			sha:   "ecb9ad295d8a0be00de4f4e48b540314ef203243c31891ad40711bbf682e88d8",
			stats: "m0 wait=12996 acquires=152 contended=144; m1 wait=672 acquires=96 contended=38; m2 wait=43 acquires=35 contended=7; barrier wait=8794 rounds=6 gen=6; work max=7 len=0; tokens max=16 len=16; procs=85"},
		{seed: 7, now: 1450, n: 1768,
			sha:   "1e3770b1e8b823e8a96ae97d2e76771890d396c99262a83585e76aded1019fba",
			stats: "m0 wait=10506 acquires=147 contended=134; m1 wait=495 acquires=88 contended=29; m2 wait=14 acquires=28 contended=4; barrier wait=6542 rounds=6 gen=6; work max=18 len=0; tokens max=18 len=4; procs=76"},
	}
	for _, want := range pinned {
		full := runOrderProgram(want.seed, -1, nil)
		if full.err != nil {
			t.Fatalf("seed %d: Run: %v", want.seed, full.err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(full.log, "\n"))))
		if full.env.Now() != want.now || len(full.log) != want.n || sum != want.sha || full.stats != want.stats {
			t.Errorf("seed %d: dispatch order moved:\n{seed: %d, now: %d, n: %d,\n sha: %q,\n stats: %q},\nwant\n%+v",
				want.seed, want.seed, full.env.Now(), len(full.log), sum, full.stats, want)
		}

		// Cancelled after k log entries the run must stop at the next poll
		// of the stop flag, having dispatched a prefix of the same order,
		// and leave no process behind.
		for _, k := range []int{1, 17, 64, 65, 300, 1500} {
			before := baselineGoroutines()
			got := runOrderProgram(want.seed, k, nil)
			if !errors.Is(got.err, ErrCancelled) {
				t.Fatalf("seed %d, cancel at %d: Run returned %v, want ErrCancelled", want.seed, k, got.err)
			}
			if got.env.Live() != 0 {
				t.Errorf("seed %d, cancel at %d: %d live processes, want 0", want.seed, k, got.env.Live())
			}
			if d := got.env.Counters().Dispatches; d == 0 || d%cancelStride != 0 {
				t.Errorf("seed %d, cancel at %d: stopped after %d dispatches, want a multiple of the poll stride %d",
					want.seed, k, d, cancelStride)
			}
			if n := len(got.log); n < k || n >= len(full.log) {
				t.Errorf("seed %d, cancel at %d: %d log entries, want at least %d and fewer than the full run's %d",
					want.seed, k, n, k, len(full.log))
			} else if strings.Join(got.log, "\n") != strings.Join(full.log[:n], "\n") {
				t.Errorf("seed %d, cancel at %d: log is not a prefix of the uncancelled run's", want.seed, k)
			}
			waitForGoroutines(t, before)
		}
	}
}

// TestPollMatchesAdvanceLoop runs the dispatch-order program with idlers
// twice, their idle steps driven once by the literal Advance loop Poll is
// defined as and once by Poll: everything observable in virtual time is
// the same, and only the host-side split of the dispatches differs.
func TestPollMatchesAdvanceLoop(t *testing.T) {
	literal := func(p *Proc, step Stepper) {
		for d := step.Step(); d >= 0; d = step.Step() {
			p.Advance(d)
		}
	}
	for _, seed := range []uint64{20191, 7} {
		loop := runOrderProgram(seed, -1, literal)
		poll := runOrderProgram(seed, -1, (*Proc).Poll)
		if loop.err != nil || poll.err != nil {
			t.Fatalf("seed %d: Run: loop %v, Poll %v", seed, loop.err, poll.err)
		}
		if a, b := strings.Join(loop.log, "\n"), strings.Join(poll.log, "\n"); a != b {
			t.Errorf("seed %d: the (now, name) logs differ (%d and %d entries)", seed, len(loop.log), len(poll.log))
		}
		if loop.env.Now() != poll.env.Now() || loop.stats != poll.stats {
			t.Errorf("seed %d: loop form ended at %v with\n%s\nPoll form at %v with\n%s",
				seed, loop.env.Now(), loop.stats, poll.env.Now(), poll.stats)
		}
		lc, pc := loop.env.Counters(), poll.env.Counters()
		if lc.Dispatches != pc.Dispatches || lc.Callbacks != pc.Callbacks {
			t.Errorf("seed %d: loop form %+v, Poll form %+v: dispatches and callbacks must match", seed, lc, pc)
		}
		if lc.Steps != 0 || pc.Steps == 0 || pc.ProcSwitches+pc.Steps != lc.ProcSwitches {
			t.Errorf("seed %d: loop form %+v, Poll form %+v: every step must replace one switch", seed, lc, pc)
		}
		t.Logf("seed %d: %d dispatches, %d switches as a loop, %d with Poll", seed, pc.Dispatches, lc.ProcSwitches, pc.ProcSwitches)

		// Cancelled at the same log position, both forms stop at the same
		// dispatch, steps counting toward the poll stride like any other.
		for _, k := range []int{65, 700} {
			loop, poll := runOrderProgram(seed, k, literal), runOrderProgram(seed, k, (*Proc).Poll)
			if !errors.Is(poll.err, ErrCancelled) || poll.env.Live() != 0 {
				t.Errorf("seed %d, cancel at %d: Poll form returned %v with %d live processes", seed, k, poll.err, poll.env.Live())
			}
			if strings.Join(loop.log, "\n") != strings.Join(poll.log, "\n") ||
				loop.env.Counters().Dispatches != poll.env.Counters().Dispatches {
				t.Errorf("seed %d, cancel at %d: the two forms stopped at different points", seed, k)
			}
		}
	}
}
