package sim

import (
	"math"
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
	mark        // its next step
	per  Time   // the sum of Cycle
	n    uint64 // steps skipped since the park
	end  Time   // the instant of the step Limit wakes it at
	// For tie-breaks (earlier): the parking dispatch and its ordinal
	// (Counters.Dispatches then); the keys of the steps up to hist, span
	// steps short of the next (a ring, nh of them noted since it restarted:
	// history notes the rest when a tie-break reads one). The processes in
	// lockstep ahead of it as it parked are its row of parking.ahead.
	parkAt  Time
	parkKey uint64
	parkN   uint64
	hist    mark
	span    int
	nh      int32
	who     int32 // the process's id, kept once proc is cleared by the wake
	keys    [2*MaxCycle + 1]uint64
}

// A mark is a step of a parked process: the instant, the key, the index in
// Cycle, and the first log entry that can follow the step before it.
type mark struct {
	at        Time
	key       uint64
	pos, from int32
}

// A Skipper applies skipped steps but their locks: reps repetitions, then steps.
type Skipper interface{ Skip(reps uint64, steps int) }

// MaxCycle bounds a cycle's length: the longest idle pass of either
// engine, a worker carrying the Time Warp comm role in a migrating run.
const MaxCycle = 12

// logCap bounds the log: trim makes room when it fills.
const logCap = 128

type logEntry struct {
	at  Time
	key uint64
	c   uint64 // seq when the dispatch started
}

const parkStep Time = -2 // what Park returns for a step to return

// parking is what the kernel keeps while anything is parked: the parked
// and re-filed records, the tie group being dispatched (tied), the log,
// and each process's lockstep set (Park), a row of words words per process
// id. An Env takes one at its first park and gives it back as Run ends
// (unpark), so a host that runs simulation after simulation allocates it
// once.
type parking struct {
	parked, refiled, group []*Parked
	log                    []logEntry
	ahead                  []uint64
	words                  int
}

// fit makes room in ahead for n processes' sets, keeping those it holds.
func (pk *parking) fit(n int) {
	w := max(pk.words, (n+63)/64)
	if n*w <= len(pk.ahead) {
		return
	}
	a := make([]uint64, n*w)
	for id := 0; id*pk.words < len(pk.ahead); id++ {
		copy(a[id*w:], pk.lockstep(int32(id)))
	}
	pk.ahead, pk.words = a, w
}

// lockstep is process id's lockstep set.
func (pk *parking) lockstep(id int32) []uint64 {
	return pk.ahead[int(id)*pk.words:][:pk.words]
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
		clear(pk.group[:cap(pk.group)])
		pk.group = pk.group[:0]
		pk.parked, pk.refiled, pk.log = e.parked[:0], e.refiled[:0], e.log[:0:logCap] // as it was, had it grown
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
	if e.pk == nil {
		e.pk = parkings.Get().(*parking)
		if cap(e.pk.parked) < len(e.procs) {
			e.pk.parked, e.pk.refiled = make([]*Parked, 0, len(e.procs)), make([]*Parked, 0, len(e.procs))
		}
		e.parked, e.refiled, e.log = e.pk.parked, e.pk.refiled, e.pk.log
	}
	r.who = int32(p.id)
	e.pk.fit(len(e.procs))
	ahead := e.pk.lockstep(r.who)
	clear(ahead)
	for _, q := range e.parked {
		i, ok := q.index(e.now + d)
		for k, j := 0, int32(0); ok && k < len(q.Cycle)+len(r.Cycle); k++ { // then they agree for ever
			ok, i, j = q.Cycle[i] == r.Cycle[j], q.succ(i), r.succ(j)
		}
		if !ok {
			continue
		}
		if e.walk(q, e.now, e.key); q.at != e.now {
			ahead[q.who/64] |= 1 << (q.who % 64)
		}
	}
	r.proc, r.mark = p, mark{at: e.now + d, key: e.seq + 1, from: int32(len(e.log))}
	r.parkAt, r.parkKey, r.parkN, r.n, r.per = e.now, e.key, e.ctr.Dispatches, 0, 0
	for _, d := range r.Cycle {
		r.per += d
	}
	if r.end = r.at + Time(r.Limit)*r.per; r.Limit > 0 && (e.due == 0 || r.end < e.due) {
		e.due = r.end
	}
	r.rehist(r.mark, 0)
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
// the last dispatch, in closed form, working out a key only where the step
// before shares its instant with a dispatch, so that the key depends on
// the one before: from the last step before the cut's instant whose key
// does not (latest). It stops short of the cut at the step r's limit
// wakes it at.
func (e *Env) walk(r *Parked, cutAt Time, cutKey uint64) {
	left := r.left()
	if left == 0 || !after(cutAt, cutKey, r.at, r.key) {
		return
	}
	m, i := e.latest(r, r.mark, r.before(cutAt, left), len(e.log))
	for ; i < left && after(cutAt, cutKey, m.at, m.key); i++ {
		m = e.succ(r, m)
	}
	r.mark, r.n, r.span = m, r.n+uint64(i), r.span+i
}

// succ is the step after m, filed by m's step.
func (e *Env) succ(r *Parked, m mark) mark {
	j := e.seek(int(m.from), m.at, m.key)
	return mark{m.at + r.Cycle[m.pos], e.counter(j), r.succ(m.pos), int32(j)}
}

// counter is the key of a skipped filing before log entry j, the first
// dispatch after the step that files it: 2S+1, S the real filings before
// that dispatch, or before the next one if no dispatch is logged after.
func (e *Env) counter(j int) uint64 {
	if j < len(e.log) {
		return e.log[j].c + 1
	}
	return e.seq + 1
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
	if t <= r.at {
		return 0
	}
	k := (t - r.at) / r.per // whole repetitions, then the steps before t
	n, s, pos := int(k)*len(r.Cycle), r.at+k*r.per, r.pos
	for ; n < left && s < t; n++ {
		s, pos = s+r.Cycle[pos], r.succ(pos)
	}
	return min(n, left)
}

// latest is the last of m's next i steps whose step before falls at an
// instant no dispatch shares, so that its key is the counter of the first
// dispatch after that instant. It returns that step and how many past m it
// lies, or m and 0 if none does. Every log entry from hi on lies at or
// after the instant of the last of the i steps: one search back from hi
// finds the first dispatch at or after it, and each step further back
// moves that back entry by entry.
func (e *Env) latest(r *Parked, m mark, i, hi int) (mark, int) {
	if i <= 0 {
		return m, 0
	}
	t, pos := r.step(m, i-1)
	for j := e.seekBack(int(m.from), hi, t); ; {
		if j == len(e.log) || e.log[j].at != t {
			return mark{t + r.Cycle[pos], e.counter(j), r.succ(pos), int32(j)}, i
		}
		if i--; i == 0 {
			return m, 0
		}
		if pos--; pos < 0 {
			pos = int32(len(r.Cycle) - 1)
		}
		t -= r.Cycle[pos]
		for j > int(m.from) && e.log[j-1].at >= t {
			j--
		}
	}
}

// rehist restarts r's history at m, span steps short of the next.
func (r *Parked) rehist(m mark, span int) {
	r.hist, r.span, r.nh = m, span, 0
	r.note(m.key)
}

// history notes the keys of r's steps past hist up to the next, which
// becomes hist, first moving hist up (latest) to a history short of it.
func (e *Env) history(r *Parked) {
	if m, i := e.latest(r, r.hist, r.span+1-r.depth(), int(r.from)); i > 0 {
		r.rehist(m, r.span-i)
	}
	m := r.hist
	for range r.span {
		m = e.succ(r, m)
		r.note(m.key)
	}
	r.hist, r.span = m, 0
}

// step is the instant and Cycle index of r's i-th step past m.
func (r *Parked) step(m mark, i int) (Time, int32) {
	t, pos := m.at+Time(i/len(r.Cycle))*r.per, m.pos
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

// index reports whether r has a step at instant t, and its Cycle index.
func (r *Parked) index(t Time) (i int32, ok bool) {
	d := t - r.at
	if d < 0 {
		return 0, false
	}
	if d >= r.per {
		d %= r.per
	}
	for i = r.pos; d > 0; i = r.succ(i) {
		d -= r.Cycle[i]
	}
	return i, d == 0
}

// seek is the index of the first dispatch logged from from on that is
// ordered after (t, k). It gallops forward from from, where the one
// sought usually lies a step or two on, then bisects.
func (e *Env) seek(from int, t Time, k uint64) int {
	e.ctr.Lookups++
	log, lo, hi := e.log, from, len(e.log)
	for d := 1; lo+d <= hi; d *= 2 {
		if j := lo + d - 1; after(log[j].at, log[j].key, t, k) {
			hi = j
			break
		}
		lo += d
	}
	return bisect(log, lo, hi, t, k)
}

// seekBack is the index of the first dispatch logged in [lo, hi] at or
// after instant t, every one from hi on being so. It gallops back from
// hi, near which the one sought usually lies, then bisects.
func (e *Env) seekBack(lo, hi int, t Time) int {
	e.ctr.Lookups++
	log := e.log
	for d := 1; hi > lo; d *= 2 {
		j := max(hi-d, lo)
		if log[j].at < t {
			lo = j + 1
			break
		}
		hi = j
	}
	return bisect(log, lo, hi, t, 0)
}

// bisect is the index of the first entry in log[lo:hi] ordered after
// (t, k), every one from hi on being so.
func bisect(log []logEntry, lo, hi int, t Time, k uint64) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); after(log[m].at, log[m].key, t, k) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

func (r *Parked) note(key uint64) {
	r.keys[int(r.nh)%len(r.keys)] = key
	r.nh++
}

// depth is how many of its last steps' keys r's history keeps: as far
// back as a tie-break with any chain looks (earlier), and no further.
func (r *Parked) depth() int { return len(r.Cycle) + MaxCycle + 1 }

// keyBack is the key of r's chain j steps before its next one, off the
// ring, which history first brings up to the next step: a tie group is
// compared pair by pair, so its members' keys are read again and again.
func (e *Env) keyBack(r *Parked, j int) uint64 {
	if uint64(j) == r.n+1 {
		return r.parkKey
	}
	if r.span > 0 {
		e.history(r)
	}
	if j >= min(int(r.nh), r.depth()) {
		panic("sim: a tie-break reached past a parked chain's history")
	}
	return r.keys[(int(r.nh)-1-j)%len(r.keys)]
}

// earlier reports whether a's filed step, tied with b's, was filed first:
// whether its filing step was, one delay back, or on a tie further back.
// Chains tied over both cycles are in lockstep since the later park, whose
// order holds: a smaller key files under a counter no larger.
func (e *Env) earlier(a, b *Parked) bool {
	ta, tb, ia, ib := a.at, b.at, int(a.pos), int(b.pos)
	for j := 1; j <= len(a.Cycle)+len(b.Cycle); j++ {
		ia, ib = (ia+len(a.Cycle)-1)%len(a.Cycle), (ib+len(b.Cycle)-1)%len(b.Cycle)
		if ta, tb = ta-a.Cycle[ia], tb-b.Cycle[ib]; ta != tb {
			return ta < tb
		}
		if ka, kb := e.keyBack(a, j), e.keyBack(b, j); ka != kb {
			return ka < kb
		}
		if ta == a.parkAt && tb == b.parkAt {
			return a.parkN < b.parkN
		}
	}
	later, other := a, b
	if a.parkN < b.parkN {
		later, other = b, a
	}
	return (e.pk.lockstep(later.who)[other.who/64]&(1<<(other.who%64)) != 0) == (later == b)
}

// settle sees every entry before its dispatch while anything is parked or
// woken. The processes a limit wakes at the earliest instant wake first if
// that step is ordered before ev, which then goes back (false) with nothing
// else parked walked past it. An odd key is a woken step's, and it can tie
// with other woken steps and with skipped ones: those processes wake too,
// and ev, standing for every step tied there, dispatches the one filed
// first (earlier), the group being put in that order once (tied).
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
		pk := e.pk
		if len(pk.group) == 0 || pk.group[0].at != ev.at || pk.group[0].key != ev.seq {
			e.tied(ev)
		}
		r := pk.group[0]
		pk.group = pk.group[:copy(pk.group, pk.group[1:])]
		for i, q := range e.refiled {
			if q == r {
				e.refiled[i], e.refiled = e.refiled[len(e.refiled)-1], e.refiled[:len(e.refiled)-1]
				break
			}
		}
		ev.proc = r.who
	}
	if len(e.parked)+len(e.refiled) > 0 {
		if len(e.log) == cap(e.log) {
			e.trim()
		}
		e.log = append(e.log, logEntry{at: ev.at, key: ev.seq, c: e.seq})
	}
	return true
}

// tied forms the group of woken steps tied at ev's odd key as the first of
// them is dispatched: the parked processes whose skipped step ties with it
// wake, and the group is put in the order earlier gives it, a binary
// insertion at a time, to be dispatched in. Nothing joins it later: a
// process that parks or wakes meanwhile steps strictly after ev.
func (e *Env) tied(ev *event) {
	for j := 0; j < len(e.parked); j++ {
		q := e.parked[j]
		if _, ok := q.index(ev.at); ok {
			if e.walk(q, ev.at, ev.seq); q.at == ev.at && q.key == ev.seq {
				e.wake(q, ev.at, ev.seq) // takes q out of e.parked
				j--
			}
		}
	}
	g := e.pk.group[:0]
	for _, q := range e.refiled {
		if q.at != ev.at || q.key != ev.seq {
			continue
		}
		lo, hi := 0, len(g)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); e.earlier(q, g[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		g = append(g, nil)
		copy(g[lo+1:], g[lo:])
		g[lo] = q
	}
	e.pk.group = g
}

// trim drops what no process can still need of the log, at least its
// older quarter, unless one must keep more. A process whose history starts
// in the older half moves its next step up to a history of steps short of
// the last dispatch, if it lies further back (latest: one lookup, no keys
// worked out between, as the next walk passes a history of steps), or
// else moves its history's start up to a history short of its next step.
// One whose history still starts in the older quarter is walked to the
// last dispatch and notes its keys, as is a woken one, and its start
// then moves past any dispatch before its step (settled).
func (e *Env) trim() {
	e.trims++
	half, quarter, low := int32(len(e.log)/2), int32(len(e.log)/4), int32(len(e.log))
	for _, q := range e.parked {
		if q.hist.from < half {
			if m, i := e.latest(q, q.mark, q.before(e.now, q.left())+1-q.depth(), len(e.log)); i > 0 {
				q.mark, q.n = m, q.n+uint64(i)
				q.rehist(m, 0)
			} else if m, i := e.latest(q, q.hist, q.span+1-q.depth(), int(q.from)); i > 0 {
				q.rehist(m, q.span-i)
			}
		}
		if q.hist.from < quarter {
			e.walk(q, e.now, e.key)
			e.settled(q, quarter)
		}
		low = min(low, q.hist.from)
	}
	for _, q := range e.refiled {
		e.settled(q, quarter)
		low = min(low, q.hist.from)
	}
	e.log = e.log[:copy(e.log, e.log[low:])]
	for _, q := range e.parked {
		q.from, q.hist.from = q.from-low, q.hist.from-low
	}
	for _, q := range e.refiled {
		q.from, q.hist.from = q.from-low, q.hist.from-low
	}
}

// settled notes r's keys up to its next step (history) if its history
// starts before entry low, and then, if it still does, moves that start
// past every dispatch before the step: none bears on a step from it on.
// A step taken just before a burst of dispatches, whose next one lies past
// them all, so holds none of them.
func (e *Env) settled(r *Parked, low int32) {
	if r.hist.from < low {
		e.history(r)
	}
	if r.hist.from < low {
		r.hist.from = int32(e.seekBack(int(r.hist.from), len(e.log), r.hist.at))
		r.from = max(r.from, r.hist.from)
	}
}
