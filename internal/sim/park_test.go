package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// How the parking program's sleepers idle: the literal Advance loop, Poll,
// or Poll with each quiet pass ending in Park.
const (
	idleLoop = iota
	idlePoll
	idlePark
)

// bytesSource hands out the fuzz input one byte at a time, then zeros.
type bytesSource []byte

func (b *bytesSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

type parkRun struct {
	log   []string
	now   Time
	stats string
	ctr   Counters
	skips []uint64 // the steps each sleeper had skipped
}

// sleeper is an idle thread as the pass machine makes one: a pass takes its
// lock for the first delay of its cycle, lets the others pass, and parks
// at the end; work announced by a bump, or its lock found held, hands the
// pass back. Its predicate is stable until the next bump, which wakes it,
// or, with a budget, until it has made that many passes since it last
// handled something: then it turns false on its own, and the park's limit
// must wake the sleeper at the pass that finds it so.
type sleeper struct {
	name    string
	p       *Proc
	mu      *Mutex
	cycle   []Time
	rec     Parked
	park    bool
	at      int // the step a pass is at
	holding bool
	passes  uint64
	budget  uint64 // quiet passes after each handling; 0: no bound
	until   uint64 // the pass count the predicate turns false at; 0: never
	handled int
	bumps   *int
	active  *int
	skipped uint64 // steps the kernel skipped for it (Skip)
}

func (s *sleeper) quiet() bool {
	return *s.bumps == s.handled && *s.active > 0 && (s.until == 0 || s.passes < s.until)
}

// step is one kernel event of an idle pass.
func (s *sleeper) step() Time {
	switch {
	case s.at == 0:
		if !s.quiet() || !s.mu.TryAcquire(s.p) {
			return -1
		}
		s.holding = true
	case s.at == 1:
		s.mu.Unlock(s.p)
		s.holding = false
	}
	d := s.cycle[s.at]
	if s.at++; s.at < len(s.cycle) {
		return d
	}
	s.at = 0
	s.passes++
	if s.park && s.quiet() && s.mu.holder == nil {
		s.rec.Limit = 0
		if s.until > 0 {
			s.rec.Limit = s.until - s.passes
		}
		return s.p.Park(&s.rec, d)
	}
	return d
}

// idle takes passes, the mode's way, until one hands back.
func (s *sleeper) idle(p *Proc, mode int) {
	if mode != idleLoop {
		p.Poll(stepFunc(s.step))
		return
	}
	for d := s.step(); d >= 0; d = s.step() {
		p.Advance(d)
	}
}

// Skip is the sleeper's sim.Skipper.
func (s *sleeper) Skip(reps uint64, steps int) {
	s.skipped += reps*uint64(len(s.cycle)) + uint64(steps)
	s.passes += reps
	for ; steps > 0; steps-- {
		if s.step() < 0 {
			panic("a skipped step found something to do")
		}
	}
}

// How a program's interactors make runs of charges: not at all (the
// parking programs), as the literal Advance loop, or with AdvanceEach and
// Mutex.LockFor.
const (
	chainNone = iota
	chainLoop
	chainEach
)

// runParkProgram runs sleepers against interactors that lock the sleepers'
// locks, bump their shared version and sleep delays drawn from the
// sleepers' own, so that their events fall on the sleepers' instants, ties
// nested several delays deep. The program is read from prog.
func runParkProgram(prog []byte, mode int) parkRun {
	return runChainProgram(prog, mode, chainNone)
}

// runChainProgram is runParkProgram whose interactors also make runs of one
// to six charges, alone or behind a lock, the chains way; chainNone draws
// exactly runParkProgram's programs.
func runChainProgram(prog []byte, mode, chains int) parkRun {
	src := bytesSource(prog)
	env := NewEnv()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", env.Now())+fmt.Sprintf(format, args...))
	}
	bumps, active := 0, 0
	base := []Time{10, 20, 30, 40}[:2+src.next(3)] // few delays: ties are the rule
	var sleepers []*sleeper
	var delays []Time
	for i := 0; i < 1+src.next(3); i++ {
		s := &sleeper{name: fmt.Sprintf("s%d", i), park: mode == idlePark, bumps: &bumps, active: &active}
		hold := base[src.next(len(base))]
		s.mu = &Mutex{Name: s.name, HoldCost: hold}
		if i > 0 && src.next(4) == 0 { // a lock two sleepers take: one of them steps
			s.mu = sleepers[0].mu
			hold = s.mu.HoldCost
		}
		s.cycle = []Time{hold}
		for range []int{2, 4, 2 + src.next(MaxCycle-1)}[src.next(3)] - 1 {
			s.cycle = append(s.cycle, base[src.next(len(base))])
		}
		if src.next(2) == 0 {
			s.budget = 1 + uint64(src.next(48))
			s.until = s.budget
		}
		s.rec = Parked{Cycle: s.cycle, Locks: []*Mutex{s.mu}, Owner: s}
		delays = append(delays, s.cycle...)
		sleepers = append(sleepers, s)
	}
	bump := func(who string) {
		for _, s := range sleepers {
			s.rec.Wake()
		}
		bumps++
		logf("%s bumps", who)
	}
	pick := func() Time {
		d := delays[src.next(len(delays))]
		if src.next(3) == 0 {
			d += delays[src.next(len(delays))]
		}
		return d
	}
	// lockFor is Lock then Advance(d), chained or not.
	lockFor := func(p *Proc, mu *Mutex, d Time) {
		if chains == chainEach {
			mu.LockFor(p, d)
			return
		}
		mu.Lock(p)
		p.Advance(d)
	}
	// charges is a run of one to six charges, some of them zero.
	charges := func(p *Proc) []Time {
		ds := make([]Time, 1+src.next(6))
		for i := range ds {
			if ds[i] = pick(); src.next(5) == 0 {
				ds[i] = 0
			}
		}
		if chains == chainEach {
			p.AdvanceEach(ds...)
		} else {
			for _, d := range ds {
				p.Advance(d)
			}
		}
		return ds
	}
	kinds := 6
	if chains != chainNone {
		kinds = 8
	}
	for _, s := range sleepers {
		s := s
		env.Spawn(s.name, func(p *Proc) {
			s.p = p
			for {
				s.idle(p, mode)
				if s.holding {
					panic("handed back holding the lock")
				}
				if *s.active == 0 && *s.bumps == s.handled {
					return
				}
				logf("%s handles %d at step %d after %d passes", s.name, bumps-s.handled, s.at, s.passes)
				s.at, s.handled = 0, bumps
				if s.budget > 0 {
					s.until = s.passes + s.budget
				}
				// What it does about it can wake the others: take any
				// sleeper's lock, bump.
				mu := sleepers[src.next(len(sleepers))].mu
				lockFor(p, mu, base[src.next(len(base))])
				mu.Unlock(p)
				if src.next(4) == 3 {
					bump(s.name)
					s.handled = bumps
				}
			}
		})
	}
	interactors := 1 + src.next(3)
	active = interactors
	for i := 0; i < interactors; i++ {
		name := fmt.Sprintf("i%d", i)
		actions := 8 + src.next(40)
		env.Spawn(name, func(p *Proc) {
			for a := 0; a < actions; a++ {
				s := sleepers[src.next(len(sleepers))]
				switch src.next(kinds) {
				case 0, 1:
					p.Advance(pick())
				case 2:
					s.mu.Lock(p)
					logf("%s holds %s", name, s.mu.Name)
					p.Advance(pick())
					s.mu.Unlock(p)
				case 3:
					bump(name)
				case 4:
					if s.mu.TryAcquire(p) {
						logf("%s took %s", name, s.mu.Name)
						p.Advance(pick())
						s.mu.Unlock(p)
					}
				case 5:
					bumpToo := src.next(2) == 0
					env.After(pick(), func() {
						logf("%s's callback", name)
						if bumpToo {
							bump(name + "'s callback")
						}
					})
					p.Advance(0)
				case 6:
					logf("%s charged %v", name, charges(p))
				case 7:
					lockFor(p, s.mu, pick())
					logf("%s holds %s", name, s.mu.Name)
					if src.next(2) == 0 {
						logf("%s charged %v", name, charges(p))
					}
					s.mu.Unlock(p)
				}
			}
			bump(name + " exits")
			active-- // read by the sleepers' predicate, like bumps: after the wake
		})
	}
	if err := env.Run(); err != nil {
		panic(err)
	}
	var st strings.Builder
	for _, s := range sleepers {
		fmt.Fprintf(&st, "%s %v passes=%d acquires=%d contended=%d wait=%d; ",
			s.name, s.cycle, s.passes, s.mu.Acquires, s.mu.Contended, s.mu.WaitTime)
	}
	return parkRun{log: log, now: env.Now(), stats: st.String(), ctr: env.Counters(), skips: skips(sleepers)}
}

// checkParkedPoll runs one program the three ways: parked sleepers must
// leave the log, the clock, every lock's statistics and the dispatch count
// of the literal loop, and take the Poll form's steps, some of them
// skipped.
func checkParkedPoll(t *testing.T, prog []byte) (skipped uint64) {
	t.Helper()
	return checkParked(t, fmt.Sprintf("program %v", prog), func(mode int) parkRun { return runParkProgram(prog, mode) })
}

// checkParked is checkParkedPoll for any program that run runs the three
// ways; what names it in a failure.
func checkParked(t *testing.T, what string, run func(mode int) parkRun) (skipped uint64) {
	t.Helper()
	return checkParkedRun(t, what, run).ctr.Skipped
}

// checkParkedRun is checkParked returning the parked run.
func checkParkedRun(t *testing.T, what string, run func(mode int) parkRun) parkRun {
	t.Helper()
	loop, poll, park := run(idleLoop), run(idlePoll), run(idlePark)
	if a, b := strings.Join(loop.log, "\n"), strings.Join(park.log, "\n"); a != b {
		i := 0
		for i < len(loop.log) && i < len(park.log) && loop.log[i] == park.log[i] {
			i++
		}
		t.Fatalf("%s: logs differ from entry %d: loop %q, parked %q", what, i, at(loop.log, i), at(park.log, i))
	}
	if loop.now != park.now || loop.stats != park.stats {
		t.Fatalf("%s: loop ended at %v with\n%s\nparked at %v with\n%s", what, loop.now, loop.stats, park.now, park.stats)
	}
	lc, pc, kc := loop.ctr, poll.ctr, park.ctr
	if kc.Dispatches != lc.Dispatches || kc.Callbacks != lc.Callbacks || kc.Steps != pc.Steps || kc.ProcSwitches != pc.ProcSwitches || pc.Skipped != 0 {
		t.Fatalf("%s: counters loop %+v, Poll %+v, parked %+v", what, lc, pc, kc)
	}
	return park
}

// runTiedSleepers runs n sleepers on one cycle, each with a lock of its
// own: they step in lockstep and park together, and a bump wakes them all
// at once, so that their next steps tie in all but the filer. An interactor bumps
// at a shifting offset into the pass, and before some bumps holds a
// sleeper's lock, which wakes that sleeper alone and takes it out of step.
// The last late sleepers are spawned two cycles in, in step with the
// others, which have parked by then.
func runTiedSleepers(n, late, mode int) parkRun {
	env := NewEnv()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", env.Now())+fmt.Sprintf(format, args...))
	}
	bumps, active := 0, 1
	cycle := []Time{10, 20, 30}
	sleepers := make([]*sleeper, n)
	for i := range sleepers {
		s := &sleeper{name: fmt.Sprintf("s%d", i), park: mode == idlePark, cycle: cycle, bumps: &bumps, active: &active}
		s.mu = &Mutex{Name: s.name, HoldCost: cycle[0]}
		s.rec = Parked{Cycle: cycle, Locks: []*Mutex{s.mu}, Owner: s}
		sleepers[i] = s
	}
	start := func(s *sleeper) {
		env.Spawn(s.name, func(p *Proc) {
			s.p = p
			for {
				s.idle(p, mode)
				if active == 0 && bumps == s.handled {
					return
				}
				logf("%s handles %d at step %d after %d passes", s.name, bumps-s.handled, s.at, s.passes)
				s.at, s.handled = 0, bumps
				p.Advance(cycle[0])
			}
		})
	}
	for _, s := range sleepers[:n-late] {
		start(s)
	}
	bump := func() {
		for _, s := range sleepers {
			s.rec.Wake()
		}
		bumps++
		logf("i bumps")
	}
	env.Spawn("i", func(p *Proc) {
		for k := range 12 {
			p.Advance(200 + Time(10*k))
			if k%4 == 3 {
				s := sleepers[k%n]
				s.mu.Lock(p)
				p.Advance(cycle[1])
				s.mu.Unlock(p)
			}
			bump()
		}
		active = 0
		bump()
	})
	if late > 0 {
		env.Spawn("late", func(p *Proc) {
			p.Advance(2 * (cycle[0] + cycle[1] + cycle[2]))
			for _, s := range sleepers[n-late:] {
				start(s)
			}
		})
	}
	if err := env.Run(); err != nil {
		panic(err)
	}
	var st strings.Builder
	for _, s := range sleepers {
		fmt.Fprintf(&st, "%s passes=%d acquires=%d contended=%d wait=%d; ", s.name, s.passes, s.mu.Acquires, s.mu.Contended, s.mu.WaitTime)
	}
	return parkRun{log: log, now: env.Now(), stats: st.String(), ctr: env.Counters(), skips: skips(sleepers)}
}

func skips(sleepers []*sleeper) []uint64 {
	n := make([]uint64, len(sleepers))
	for i, s := range sleepers {
		n[i] = s.skipped
	}
	return n
}

// TestManyTiedWakeups: however many parked processes a bump wakes at one
// instant, their steps are dispatched in the literal loop's order.
// A wide conservative run has dozens of idle threads in lockstep.
func TestManyTiedWakeups(t *testing.T) {
	for _, n := range []int{8, 31, 32, 40, 100} {
		if skipped := checkParked(t, fmt.Sprintf("%d sleepers", n), func(mode int) parkRun { return runTiedSleepers(n, 0, mode) }); skipped == 0 {
			t.Errorf("%d sleepers: none parked", n)
		}
	}
}

// TestLockstepPastProcess256: three hundred sleepers step in lockstep;
// those with ids past 256 park and skip steps too, and the run is the
// literal loop's. In the second run the last hundred are spawned after the
// others have parked.
func TestLockstepPastProcess256(t *testing.T) {
	const n = 300
	for _, late := range []int{0, 100} {
		what := fmt.Sprintf("%d sleepers, %d late", n, late)
		park := checkParkedRun(t, what, func(mode int) parkRun { return runTiedSleepers(n, late, mode) })
		for i := 256; i < n; i++ {
			if park.skips[i] == 0 {
				t.Errorf("%s: sleeper %d never skipped a step", what, i)
			}
		}
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestParkedPollMatchesAdvanceLoop: over seeded programs — one to three
// sleepers with cycles of two to MaxCycle steps, some sharing a lock, some
// with a pass budget that runs out on its own, against
// interactors whose sleeps are drawn from the sleepers' delays and who take
// their locks and bump their version at every 10 ns offset of a pass —
// parking changes nothing but how many steps are dispatched.
func TestParkedPollMatchesAdvanceLoop(t *testing.T) {
	var skipped, steps uint64
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 64+rng.Intn(512))
		rng.Read(prog)
		skipped += checkParkedPoll(t, prog)
		steps += runParkProgram(prog, idlePoll).ctr.Steps
	}
	if 2*skipped < steps {
		t.Errorf("%d of %d steps skipped: the sleepers hardly park", skipped, steps)
	}
	t.Logf("%d of %d steps skipped", skipped, steps)
}

// FuzzParkedPoll searches the programs for one where parking moves
// anything.
func FuzzParkedPoll(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 3, 2, 1, 2, 3, 0, 3, 9, 4, 5, 2, 3, 1, 0, 5, 2, 2, 3, 3, 3})
	f.Add([]byte("a longer program, with three sleepers and many interactions of each kind"))
	// A sleeper's budget runs out at an instant an interactor is dispatched
	// at: the limit's waking step must take its place among the ties.
	f.Add([]byte{0x4f, 0x1c, 0xd6, 0xfd, 0xfc, 0x63, 0x3c, 0xf, 0xa6, 0xd5, 0x8f, 0x41, 0xc0, 0x6e, 0x60, 0x9c, 0x10, 0x54, 0xe4, 0xb})
	f.Fuzz(func(t *testing.T, prog []byte) { checkParkedPoll(t, prog) })
}
