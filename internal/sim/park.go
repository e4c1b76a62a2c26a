package sim

import "math"

// Parked is the record of a process that may park in Poll (DESIGN.md
// "Kernel scheduling", Parking): its steps repeat a cycle and change
// nothing others see but its locks, so the kernel skips them until
// something could observe it (Wake). A skipped step's key follows from its
// instant alone (Key): the step before filed it, as the process's only
// filing then. So a wake counts the steps ordered before the dispatch in
// progress and files the next. The owner fills Cycle, Locks and Owner.
type Parked struct {
	Cycle []Time   // what one repetition's steps return, from the first after the park; positive
	Locks []*Mutex // every acquisition a repetition makes; Lock or TryAcquire of one wakes the process
	// Limit bounds the repetitions skipped (0: no bound): the step that
	// starts repetition Limit+1 wakes the process, as a Wake there would.
	Limit uint64
	Owner Skipper

	proc *Proc  // the parked process; nil while it steps
	next Key    // its next step's
	pos  int32  // the index in Cycle of what that step returns
	per  Time   // the sum of Cycle
	n    uint64 // steps skipped since the park
	end  Time   // the instant of the step Limit wakes it at
}

// A Skipper applies skipped steps but their locks: reps repetitions, then steps.
type Skipper interface{ Skip(reps uint64, steps int) }

// MaxCycle bounds a cycle's length: the longest idle pass of either
// engine, a worker carrying the Time Warp comm role in a migrating run.
const MaxCycle = 12

const parkStep Time = -2 // what Park returns for a step to return

// unpark ends parking as Run returns: no process stays parked past it.
func (e *Env) unpark() {
	for _, r := range e.parked {
		r.proc = nil
	}
	clear(e.parked)
	e.parked = e.parked[:0]
}

// Park is returned by a Poll step of p in place of its delay d, ending a
// repetition of r.Cycle. It parks p unless a lock of r is held or watched.
func (p *Proc) Park(r *Parked, d Time) Time {
	e := p.env
	if len(r.Cycle) > MaxCycle {
		return d
	}
	for _, m := range r.Locks {
		if m.holder != nil || (m.watch != nil && m.watch != r && m.watch.proc != nil) {
			return d
		}
	}
	if e.parked == nil {
		e.parked = make([]*Parked, 0, len(e.procs))
	}
	r.proc, r.next, r.pos, r.n, r.per = p, e.file(&p.f, d), 0, 0, 0
	for _, d := range r.Cycle {
		r.per += d
	}
	if r.end = r.next.At + Time(r.Limit)*r.per; r.Limit > 0 && (e.due == 0 || r.end < e.due) {
		e.due = r.end
	}
	for _, m := range r.Locks {
		m.watch = r
	}
	e.parked = append(e.parked, r)
	return parkStep
}

// Asked reports whether the process is parked, to an owner about to ask
// whether what it parked on still holds: Counters.Rechecks counts those.
func (r *Parked) Asked() bool {
	if r.proc == nil {
		return false
	}
	r.proc.env.ctr.Rechecks++
	return true
}

// Wake brings a parked process up to the dispatch in progress.
func (r *Parked) Wake() {
	if p := r.proc; p != nil {
		p.env.wake(r, p.env.key)
	}
}

// wake takes r's skipped steps ordered before cut, within its limit, and
// files the next.
func (e *Env) wake(r *Parked, cut Key) {
	e.walk(r, cut)
	e.due = 0
	for i := 0; i < len(e.parked); i++ {
		if q := e.parked[i]; q == r {
			e.parked[i], e.parked = e.parked[len(e.parked)-1], e.parked[:len(e.parked)-1]
			i--
		} else if q.Limit > 0 && (e.due == 0 || q.end < e.due) {
			e.due = q.end
		}
	}
	n, m, who := r.n, uint64(len(r.Cycle)), int32(r.proc.id)
	r.proc = nil
	e.ctr.Dispatches, e.ctr.Steps, e.ctr.Skipped = e.ctr.Dispatches+n, e.ctr.Steps+n, e.ctr.Skipped+n
	for _, l := range r.Locks {
		l.Acquires += int64(n / m)
	}
	r.Owner.Skip(n/m, int(n%m))
	e.pend.push(e.event(r.next, who))
}

// walk takes r over its steps ordered before cut, within its limit: those
// before cut's instant are a count, and of them only the last one's key is
// worked out, for the step that may fall at the instant itself.
func (e *Env) walk(r *Parked, cut Key) {
	left := r.left()
	i := r.before(cut.At, left)
	t, pos := r.step(i)
	k := r.next
	if i > 0 {
		k = r.key(t, pos)
	}
	if i < left && k.Before(cut) {
		i, t, pos = i+1, t+r.Cycle[pos], r.succ(pos)
		k = r.key(t, pos)
	}
	r.next, r.pos, r.n = k, pos, r.n+uint64(i)
}

// key is the key of r's skipped step at t, the Cycle index pos: filed by
// the step before, at its instant, as the only filing of r's process there.
func (r *Parked) key(t Time, pos int32) Key {
	if pos--; pos < 0 {
		pos = int32(len(r.Cycle) - 1)
	}
	f := t - r.Cycle[pos]
	return Key{At: t, Filed: f, Tie: perm(r.proc.f.id, f) << countBits}
}

// left is how many steps r may still skip: its limit's, or any number.
func (r *Parked) left() int {
	if r.Limit == 0 {
		return math.MaxInt
	}
	return int(r.Limit*uint64(len(r.Cycle)) - r.n)
}

// before counts r's steps before instant t, at most left of them.
func (r *Parked) before(t Time, left int) int {
	if t <= r.next.At {
		return 0
	}
	k := (t - r.next.At) / r.per // whole repetitions, then the steps before t
	n, s, pos := int(k)*len(r.Cycle), r.next.At+k*r.per, r.pos
	for ; n < left && s < t; n++ {
		s, pos = s+r.Cycle[pos], r.succ(pos)
	}
	return min(n, left)
}

// step is the instant and Cycle index of r's i-th step past the next.
func (r *Parked) step(i int) (Time, int32) {
	t, pos := r.next.At+Time(i/len(r.Cycle))*r.per, r.pos
	for k := i % len(r.Cycle); k > 0; k-- {
		t, pos = t+r.Cycle[pos], r.succ(pos)
	}
	return t, pos
}

// succ is the Cycle index after pos.
func (r *Parked) succ(pos int32) int32 {
	if pos++; int(pos) == len(r.Cycle) {
		return 0
	}
	return pos
}

// settle runs before each dispatch while anything is parked: the processes
// whose limit wakes them at a step ordered before ev wake first, and ev
// goes back (false).
func (e *Env) settle(ev *event) bool {
	due := e.due
	if due == 0 || due > ev.at {
		return true
	}
	k, back := ev.key(), false
	for j := 0; j < len(e.parked); j++ {
		if q := e.parked[j]; q.Limit > 0 && q.end == due && q.key(due, 0).Before(k) {
			e.wake(q, k) // takes q out of e.parked
			back, j = true, j-1
		}
	}
	if back {
		e.pend.push(*ev)
	}
	return !back
}
