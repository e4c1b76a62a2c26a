package sim

import (
	"math"
	"sort"
	"sync"
)

// Parked is the record of a process that may park in Poll (DESIGN.md
// "Kernel scheduling", Parking): its steps repeat a cycle and change
// nothing others see but its locks, so the kernel skips them until
// something could observe it (Wake). Real filings take even keys, a
// skipped one 2S+1 (S real ones before it), from a log of the dispatches
// made while anything is parked. The owner fills Cycle, Locks and Owner.
type Parked struct {
	Cycle []Time   // what one repetition's steps return, from the first after the park; positive
	Locks []*Mutex // every acquisition a repetition makes; Lock or TryAcquire of one wakes the process
	// Limit bounds the repetitions skipped (0: no bound): the step that
	// starts repetition Limit+1 wakes the process, as a Wake there would.
	Limit uint64
	Owner Skipper

	proc *Proc  // the parked process; nil while it steps
	at   Time   // its next step: the instant,
	key  uint64 // the key,
	pos  int    // the index in Cycle,
	from int    // and the first log entry that can follow it
	per  Time   // the sum of Cycle
	n    uint64 // steps skipped since the park
	end  Time   // the instant of the step Limit wakes it at
	// For tie-breaks (earlier): the parking dispatch and its ordinal
	// (Counters.Dispatches then), the keys of the last steps (a ring), the
	// processes in lockstep ahead of it as it parked.
	park  event
	parkN uint64
	keys  [2*MaxCycle + 1]uint64
	nh    int
	ahead [maxProcs / 64]uint64
	who   int32 // the process's id, kept once proc is cleared by the wake
}

// A Skipper applies skipped steps but their locks: reps repetitions, then steps.
type Skipper interface{ Skip(reps uint64, steps int) }

// MaxCycle bounds a cycle's length: the longest idle pass of either
// engine, a worker carrying the Time Warp comm role in a migrating run.
const MaxCycle = 12

// Bounds: the processes parking in lockstep, the log.
const (
	maxProcs = 256
	logCap   = 128
)

type logEntry struct {
	at  Time
	key uint64
	c   uint64 // seq when the dispatch started
}

const parkStep Time = -2 // what Park returns for a step to return

// parking is what the kernel keeps while anything is parked: the parked
// and re-filed records and the log. An Env takes one at its first park and
// gives it back as Run ends (unpark), so a host that runs simulation after
// simulation allocates it once.
type parking struct {
	parked, refiled []*Parked
	log             []logEntry
}

var parkings = sync.Pool{New: func() any { return &parking{log: make([]logEntry, 0, logCap)} }}

// unpark ends parking as Run returns: no process stays parked past it.
func (e *Env) unpark() {
	for _, r := range e.parked {
		r.proc = nil
	}
	if pk := e.pk; pk != nil {
		clear(e.parked[:cap(e.parked)])
		clear(e.refiled[:cap(e.refiled)])
		pk.parked, pk.refiled, pk.log = e.parked[:0], e.refiled[:0], e.log[:0]
		e.pk, e.parked, e.refiled, e.log = nil, nil, nil, nil
		parkings.Put(pk)
	}
}

// after reports whether (at, key) is ordered after (t, k).
func after(at Time, key uint64, t Time, k uint64) bool {
	return at > t || (at == t && key > k)
}

// Park is returned by a Poll step of p in place of its delay d, ending a
// repetition of r.Cycle. It parks p unless a lock of r is held or watched,
// and notes which parked processes stepping in lockstep with p are ahead.
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
	clear(r.ahead[:])
	for _, q := range e.parked {
		i, ok := q.index(e.now + d)
		for k := range len(q.Cycle) + len(r.Cycle) { // then they agree for ever
			ok = ok && q.Cycle[(i+k)%len(q.Cycle)] == r.Cycle[k%len(r.Cycle)]
		}
		if !ok {
			continue
		} else if p.id >= maxProcs || q.who >= maxProcs {
			return d
		}
		if e.walk(q, e.now, e.key); q.at != e.now {
			r.ahead[q.who/64] |= 1 << (q.who % 64)
		}
	}
	r.proc, r.at, r.who, r.key, r.pos, r.from = p, e.now+d, int32(p.id), e.seq+1, 0, len(e.log)
	r.park, r.parkN, r.n, r.per, r.nh = event{at: e.now, seq: e.key}, e.ctr.Dispatches, 0, 0, 0
	for _, d := range r.Cycle {
		r.per += d
	}
	if r.end = r.at + Time(r.Limit)*r.per; r.Limit > 0 && (e.due == 0 || r.end < e.due) {
		e.due = r.end
	}
	r.note(r.key)
	for _, m := range r.Locks {
		m.watch = r
	}
	if e.pk == nil {
		e.pk = parkings.Get().(*parking)
		if cap(e.pk.parked) < len(e.procs) {
			e.pk.parked, e.pk.refiled = make([]*Parked, 0, len(e.procs)), make([]*Parked, 0, len(e.procs))
		}
		e.parked, e.refiled, e.log = e.pk.parked, e.pk.refiled, e.pk.log
	}
	e.parked = append(e.parked, r)
	return parkStep
}

// Parked reports whether the process is parked.
func (r *Parked) Parked() bool { return r.proc != nil }

// Wake brings a parked process up to the dispatch in progress.
func (r *Parked) Wake() {
	if p := r.proc; p != nil {
		p.env.wake(r, p.env.now, p.env.key)
	}
}

// wake takes r's skipped steps ordered before (cutAt, cutKey), within its
// limit, and files the next in the heap, where it may tie with other woken
// steps; settle orders those.
func (e *Env) wake(r *Parked, cutAt Time, cutKey uint64) {
	e.walk(r, cutAt, cutKey)
	e.due = 0
	for i := 0; i < len(e.parked); i++ {
		if q := e.parked[i]; q == r {
			e.parked[i], e.parked = e.parked[len(e.parked)-1], e.parked[:len(e.parked)-1]
			i--
		} else if q.Limit > 0 && (e.due == 0 || q.end < e.due) {
			e.due = q.end
		}
	}
	n, m := r.n, uint64(len(r.Cycle))
	r.proc = nil
	e.ctr.Dispatches, e.ctr.Steps, e.ctr.Skipped = e.ctr.Dispatches+n, e.ctr.Steps+n, e.ctr.Skipped+n
	for _, l := range r.Locks {
		l.Acquires += int64(n / m)
	}
	r.Owner.Skip(n/m, int(n%m))
	e.refiled = append(e.refiled, r)
	e.pend.push(event{at: r.at, seq: r.key, proc: r.who})
}

// walk takes r over its steps ordered before (cutAt, cutKey), not before
// the last dispatch, in closed form, with keys for the last steps only: a
// key depends on the one before only where a dispatch shares its instant.
// It stops short of the cut at the step r's limit wakes it at.
func (e *Env) walk(r *Parked, cutAt Time, cutKey uint64) {
	left := math.MaxInt // the steps r may still skip
	if r.Limit > 0 {
		left = int(r.Limit*uint64(len(r.Cycle)) - r.n)
	}
	if left == 0 || !after(cutAt, cutKey, r.at, r.key) {
		return
	}
	n := min(int((cutAt-r.at)/r.per)*len(r.Cycle), left) // then the steps before cutAt
	for t, _ := r.step(n); n < left && t < cutAt; t, _ = r.step(n) {
		n++
	}
	i, key, from := max(0, n+1-r.history()), r.key, r.from
	for ; i > 0; i-- {
		t, _ := r.step(i - 1)
		k, f := e.counter(from, t, ^uint64(0))
		if _, g := e.counter(from, t, 0); f == g { // no dispatch at t
			key, from = k, f
			break
		}
	}
	for {
		t, _ := r.step(i)
		if i > 0 { // the next step's key is noted already
			r.note(key)
		}
		if i == left || !after(cutAt, cutKey, t, key) {
			break
		}
		key, from = e.counter(from, t, key)
		i++
	}
	r.at, r.pos = r.step(i)
	r.key, r.from, r.n = key, from, r.n+uint64(i)
}

// step is the instant and Cycle index of r's i-th step from its next one.
func (r *Parked) step(i int) (Time, int) {
	t, pos := r.at+Time(i/len(r.Cycle))*r.per, r.pos
	for k := i % len(r.Cycle); k > 0; k-- {
		t, pos = t+r.Cycle[pos], (pos+1)%len(r.Cycle)
	}
	return t, pos
}

// index reports whether r has a step at instant t, and its Cycle index.
func (r *Parked) index(t Time) (i int, ok bool) {
	d := t - r.at
	if d < 0 {
		return 0, false
	}
	for i, d = r.pos, d%r.per; d > 0; i++ {
		d -= r.Cycle[i%len(r.Cycle)]
	}
	return i % len(r.Cycle), d == 0
}

// counter is the key a step at (t, k) files its successor under, from the
// first dispatch logged after it, and that dispatch's index.
func (e *Env) counter(from int, t Time, k uint64) (uint64, int) {
	log := e.log[from:]
	i := sort.Search(len(log), func(i int) bool { return after(log[i].at, log[i].key, t, k) })
	if i == len(log) {
		return e.seq + 1, from + i
	}
	return log[i].c + 1, from + i
}

func (r *Parked) note(key uint64) {
	r.keys[r.nh%len(r.keys)] = key
	r.nh++
}

// history is how many of its last steps' keys a walk notes for r: as far
// back as a tie-break with any chain looks (earlier), and no further.
func (r *Parked) history() int { return len(r.Cycle) + MaxCycle + 1 }

// keyBack is the key of r's chain j steps before its next one.
func (r *Parked) keyBack(j int) uint64 {
	if uint64(j) == r.n+1 {
		return r.park.seq
	}
	if j >= min(r.nh, r.history()) {
		panic("sim: a tie-break reached past a parked chain's history")
	}
	return r.keys[(r.nh-1-j)%len(r.keys)]
}

// earlier reports whether a's filed step, tied with b's, was filed first:
// whether its filing step was, one delay back, or on a tie further back.
// Chains tied over both cycles are in lockstep since the later park, whose
// order holds: a smaller key files under a counter no larger.
func earlier(a, b *Parked) bool {
	ta, tb, ia, ib := a.at, b.at, a.pos, b.pos
	for j := 1; j <= len(a.Cycle)+len(b.Cycle); j++ {
		ia, ib = (ia+len(a.Cycle)-1)%len(a.Cycle), (ib+len(b.Cycle)-1)%len(b.Cycle)
		ta, tb = ta-a.Cycle[ia], tb-b.Cycle[ib]
		if ka, kb := a.keyBack(j), b.keyBack(j); ta != tb || ka != kb {
			return ta < tb || (ta == tb && ka < kb)
		}
		if ta == a.park.at && tb == b.park.at {
			return a.parkN < b.parkN
		}
	}
	later, other := a, b
	if a.parkN < b.parkN {
		later, other = b, a
	}
	return (later.ahead[other.who/64]&(1<<(other.who%64)) != 0) == (later == b)
}

// settle sees every entry before its dispatch while anything is parked or
// woken. The processes a limit wakes at the earliest instant wake first if
// that step is ordered before ev, which then goes back (false) with nothing
// else parked walked past it. An odd key is a woken step's, and it can tie
// with other woken steps and with skipped ones: those processes wake too,
// and ev, standing for every step tied there, dispatches the one filed
// first (earlier).
func (e *Env) settle(ev *event) bool {
	if due := e.due; due > 0 && due <= ev.at {
		back := false
		for j := 0; j < len(e.parked); j++ {
			if q := e.parked[j]; q.Limit > 0 && q.end == due {
				if e.walk(q, ev.at, ev.seq); after(ev.at, ev.seq, q.at, q.key) { // the walk ends on its waking step
					e.wake(q, ev.at, ev.seq) // takes q out of e.parked
					back, j = true, j-1
				}
			}
		}
		if back {
			e.pend.push(*ev)
			return false
		}
	}
	if ev.seq&1 == 1 {
		for j := 0; j < len(e.parked); j++ {
			q := e.parked[j]
			if _, ok := q.index(ev.at); ok {
				if e.walk(q, ev.at, ev.seq); q.at == ev.at && q.key == ev.seq {
					e.wake(q, ev.at, ev.seq) // takes q out of e.parked
					j--
				}
			}
		}
		f := -1
		for i, q := range e.refiled {
			if q.at == ev.at && q.key == ev.seq && (f < 0 || earlier(q, e.refiled[f])) {
				f = i
			}
		}
		ev.proc = e.refiled[f].who
		e.refiled[f], e.refiled = e.refiled[len(e.refiled)-1], e.refiled[:len(e.refiled)-1]
	}
	if len(e.parked) > 0 {
		if len(e.log) == cap(e.log) {
			e.trim()
		}
		e.log = append(e.log, logEntry{at: ev.at, key: ev.seq, c: e.seq})
	}
	return true
}

// trim takes the chains that need the log's older half up to the last
// dispatch, and drops what none needs.
func (e *Env) trim() {
	low := len(e.log)
	for _, q := range e.parked {
		if q.from < len(e.log)/2 {
			e.walk(q, e.now, e.key)
		}
		low = min(low, q.from)
	}
	e.log = e.log[:copy(e.log, e.log[low:])]
	for _, q := range e.parked {
		q.from -= low
	}
}
