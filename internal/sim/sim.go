// Package sim is a deterministic, process-oriented discrete-event
// simulation kernel. It plays the role that real hardware threads, pthread
// primitives and wall-clock time play in the paper's testbed: simulated
// "processes" (coroutines of the goroutine that calls Run) advance a
// shared virtual clock, contend on simulated mutexes, meet at simulated
// barriers and exchange data through simulated queues.
//
// Exactly one process runs at any instant by construction: Run switches
// into a process and gets control back when it blocks, a direct coroutine
// switch with no channel, no scheduler queue and no second OS thread
// woken. Execution is therefore fully deterministic regardless of
// GOMAXPROCS and needs no memory synchronization inside the simulated
// world. A process that only wakes, looks and sleeps again can do so
// through Poll, whose steps Run takes itself without switching at all.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/stash"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// procState describes what a process is currently doing; used for
// diagnostics when the simulation deadlocks.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

func (s procState) String() string {
	return [...]string{"runnable", "running", "blocked", "done"}[s]
}

// Proc is a simulated thread of execution. All of its methods must be
// called only from within the process's own function body.
type Proc struct {
	env   *Env
	name  string
	id    int
	state procState
	// What a blocked process waits on, as the primitive's kind and name:
	// two words stored and joined only if a DeadlockError is rendered.
	waitKind, waitName string
	link               *Proc // the next process on the wait list it is on (waitList)
	xfer               any   // value handed over by Queue.Put to a blocked getter
	panicked           any   // panic value captured from the process body

	step Stepper // what Run steps in the process's stead while it sits in Poll
	f    filer   // what the process files under

	// rest is what of an AdvanceEach Run still files in the process's
	// stead, one delay per dispatch of its wake-up; a view of chain.
	rest  []Time
	chain [chainCap]Time

	body   func(*Proc)
	co     *coro // what the body runs on (coro.go); nil once it has ended
	cancel bool  // set by unwind: the resumed body panics procCancelled
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's index in spawn order, from 0.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// event is a scheduled occurrence: either resuming a process or running a
// callback in scheduler context. It names both by index in one field, so an
// entry is 24 bytes without a pointer in it: a sift moves half of what it
// would with the callback inline, and the collector never scans the pending
// set.
type event struct {
	at    Time
	filed Time   // Key.Filed
	tie   uint32 // Key.Tie
	who   int32  // >= 0: resume Env.procs[who]; < 0: run Env.cbs[^who]
}

func (e *event) key() Key { return Key{At: e.at, Filed: e.filed, Tie: e.tie} }

// callback is a pending After: what its entry points at by index.
type callback struct {
	fn   func() // must not block
	src  string // origin: the process that scheduled it (for diagnostics)
	next int32  // free list link while the slot is vacant
}

// before is the kernel's one order (Key), on an entry's fields.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && (e.filed < o.filed || e.filed == o.filed && e.tie < o.tie)
}

// eventHeap is the kernel's pending-event set: a binary heap in key order.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down()
	return top
}

// down restores heap order below a root that may be out of place: the
// root is lifted out, smaller children move up into the hole, and it is
// written once, where it lands.
func (h eventHeap) down() {
	n := len(h)
	if n < 2 {
		return
	}
	root := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if root.before(&h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = root
}

// Env is a simulation environment: a virtual clock plus the set of
// processes and pending events that drive it.
type Env struct {
	now     Time
	pend    eventHeap
	procs   []*Proc
	chunk   []Proc     // what Spawn carves records from: never moves, never grows
	cbs     []callback // After's slab: filled by After, vacated by Run
	cbFree  int32      // first vacant slot of cbs, or -1
	live    int
	cur     *Proc
	running bool
	ctr     Counters

	// What the keys are worked out from (key.go): the scheduler's filings,
	// and the count of zero-delay filings made at zeroAt.
	sched  filer
	zeroAt Time
	zeros  uint32

	// stepping is the process whose Poll step is executing, in its own
	// context or in Run's; the blocking primitives refuse to run under it.
	stepping *Proc

	// Parking (park.go); key is the dispatch in progress's, due the
	// earliest instant a parked process's limit wakes it at (0: none).
	parked []*Parked
	key    Key
	due    Time

	// Livelock guard: number of consecutive dispatches allowed at a single
	// timestamp before the kernel declares a virtual livelock. Zero means
	// the default (50 million).
	LivelockLimit int

	sameTimeCount int
	lastDispatch  Time
	cbSrc         string         // origin of the callback currently executing
	sameTimeBy    map[string]int // dispatch counts per origin near the livelock limit

	names strings.Builder // every string Name has made, end to end
	kept  *arrays         // where the arrays come from, and go back to (Release)

	// stop is the asynchronous cancellation request flag: the only Env
	// field any goroutine other than Run's may touch. Run polls it between
	// dispatches and unwinds the simulation when set.
	stop atomic.Bool
}

// Counters is what the kernel has dispatched so far. The counts are a
// function of the simulated program alone, so they repeat exactly from
// run to run.
type Counters struct {
	Dispatches   uint64 // events taken off the pending set, a Poll wake-up re-filed included
	ProcSwitches uint64 // dispatches that switched into a process
	Callbacks    uint64 // dispatches that ran an After callback
	Steps        uint64 // dispatches that ran a Poll step and switched nowhere
	Skipped      uint64 // of the Steps, those a parked process never took (host-only)
	Chained      uint64 // dispatches that filed an AdvanceEach's next delay and switched nowhere (host-only)
	Rechecks     uint64 // times an owner asked whether a parked process stays parked (Parked.Asked; host-only)
}

// Counters returns the kernel's dispatch counts.
func (e *Env) Counters() Counters { return e.ctr }

// livelockWindow is how many dispatches before the livelock limit the
// kernel starts attributing events to their origin, so the panic can name
// the stuck process without charging bookkeeping to healthy runs.
const livelockWindow = 1024

// ErrCancelled is returned by Run when Cancel aborted the simulation.
var ErrCancelled = errors.New("sim: run cancelled")

// cancelStride is how many dispatches pass between polls of the stop
// flag: cancellation latency is bounded by it while the dispatch hot
// loop pays one atomic load per stride, not per event. It is a threshold:
// a wake adds skipped steps to Dispatches at once.
const cancelStride = 64

// procCancelled is the panic value yield raises to unwind a process
// whose run was cancelled; Proc.run swallows it.
type procCancelled struct{}

// Cancel requests that a running (or about-to-run) simulation stop. It
// is the one Env method safe to call from any goroutine: Run observes
// the request between dispatches, terminates every simulated process,
// and returns ErrCancelled. Calling it after Run finished is a no-op.
func (e *Env) Cancel() { e.stop.Store(true) }

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	a := envArrays.Take()
	return &Env{cbFree: -1, sched: filer{id: schedID}, kept: a, procs: a.procs, pend: a.pend, cbs: a.cbs, parked: a.parked}
}

// arrays is what an Env's run grows: its process records and list, its
// pending set, its callback slab and its parked list.
type arrays struct {
	chunk  stash.Arrays[Proc]
	procs  []*Proc
	pend   eventHeap
	cbs    []callback
	parked []*Parked
	names  int // the bytes of the last Env's names
}

func (a *arrays) Reset() int {
	return a.chunk.Reset() + stash.Empty(&a.procs) + stash.Empty(&a.pend) + stash.Empty(&a.cbs) + stash.Empty(&a.parked)
}

var envArrays = stash.NewKeep[arrays]()

// Release hands e's arrays, as far as its run grew them, to the next
// NewEnv, once Run has returned nil: only Cancel, a no-op, may follow.
func (e *Env) Release() {
	a := e.kept
	a.procs, a.pend, a.cbs, a.parked, a.names = e.procs, e.pend, e.cbs, e.parked, e.names.Len()
	e.chunk, e.procs, e.pend, e.cbs, e.parked, e.kept = nil, nil, nil, nil, nil, nil
	envArrays.Put(a)
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Name returns format with each %d replaced by the next of ids, as a piece
// of one string that holds every name e has made: only diagnostics read
// names, so one costs no allocation of its own, and none goes through fmt,
// whose printers come from a sync.Pool.
func (e *Env) Name(format string, ids ...int) string {
	var buf [64]byte
	b := buf[:0]
	for _, id := range ids {
		i := strings.Index(format, "%d")
		if i < 0 {
			break
		}
		b = strconv.AppendInt(append(b, format[:i]...), int64(id), 10)
		format = format[i+2:]
	}
	if e.names.Cap() == 0 {
		e.names.Grow(max(256, e.kept.names)) // as long as the last Env's names
	}
	start := e.names.Len()
	e.names.Write(append(b, format...))
	return e.names.String()[start:]
}

// Live returns the number of spawned processes that have not finished.
func (e *Env) Live() int { return e.live }

// Spawn registers a new process. It may be called before Run or from
// within a running process; the new process starts at the current virtual
// time (after the caller yields). A warm spawn allocates nothing of its
// own: the record comes from a chunk, the coroutine from the idle list.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	if len(e.procs) == schedID {
		panic(fmt.Sprintf("sim: more than %d processes: a key holds no more filer ids", schedID))
	}
	if len(e.chunk) == cap(e.chunk) {
		e.Reserve(max(4, len(e.procs))) // the records double, and procs with them
	}
	e.chunk = append(e.chunk, Proc{env: e, name: name, id: len(e.procs), f: filer{id: uint32(len(e.procs))}, body: fn, co: takeCoro()})
	p := &e.chunk[len(e.chunk)-1]
	p.co.p = p
	e.procs = append(e.procs, p)
	e.live++
	e.pend.push(e.event(e.file(nil, 0), int32(p.id)))
	return p
}

// Reserve makes room for n more processes: records, list, and a wake-up
// and two more filings each in the pending set. Spawn reserves when the
// room runs out; a caller that knows how many it will spawn, before.
func (e *Env) Reserve(n int) {
	e.chunk, e.procs, e.pend = e.kept.chunk.Make(n)[:0], slices.Grow(e.procs, n), slices.Grow(e.pend, 3*n)
}

// run runs the body on the process's coroutine, or only retires the
// process if its run was cancelled before the body started. Run re-raises
// a panic in a process, so callers can recover it, but not the unwind of a
// cancelled one: that is the kernel's own doing, and silent.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procCancelled); !ok {
				p.panicked = r
			}
		}
		p.finish()
	}()
	if !p.cancel {
		p.body(p)
	}
}

// After schedules fn to run in scheduler context at now+d, and returns the
// key it is dispatched under. fn must not block; it may wake processes (e.g.
// Queue.PutNB) and schedule more callbacks. Safe to call from process
// context or from another callback.
func (e *Env) After(d Time, fn func()) Key {
	if d < 0 {
		panic("sim: After with negative delay")
	}
	// Record the scheduling origin: the running process, or — when called
	// from another callback — that callback's own origin, so chains of
	// rescheduled callbacks (e.g. retransmission timers) stay attributed
	// to the process that started them.
	src := e.cbSrc
	if e.cur != nil {
		src = e.cur.name
	}
	// The slab reuses vacated slots, so a steady stream of callbacks
	// allocates nothing once it has reached its high-water mark.
	i := e.cbFree
	if i < 0 {
		i = int32(len(e.cbs))
		e.cbs = append(e.cbs, callback{})
	} else {
		e.cbFree = e.cbs[i].next
	}
	e.cbs[i] = callback{fn: fn, src: src}
	k := e.file(e.filer(), d)
	e.pend.push(e.event(k, ^i))
	return k
}

// event is the pending entry of who under key k.
func (e *Env) event(k Key, who int32) event {
	return event{at: k.At, filed: k.Filed, tie: k.Tie, who: who}
}

// makeRunnable schedules p to resume at the current time.
func (e *Env) makeRunnable(p *Proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: makeRunnable(%s) in state %v", p.name, p.state))
	}
	p.state = stateRunnable
	e.pend.push(e.event(e.file(nil, 0), int32(p.id)))
}

// DeadlockError reports that live processes remain but no event can ever
// wake them.
type DeadlockError struct {
	Now   Time
	Procs []string // "name: blocked on X"
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v; %d live processes: %s",
		d.Now, len(d.Procs), strings.Join(d.Procs, "; "))
}

// Run executes events until none remain. It returns a *DeadlockError if
// live processes remain blocked with an empty event heap, and panics on a
// virtual livelock (an unbounded number of events at one timestamp, which
// indicates a simulated busy-wait that never advances time).
func (e *Env) Run() error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	// However Run ends — cancelled, deadlocked (once the error's process
	// list is rendered) or panicking — no process coroutine outlives it.
	defer func() {
		// A step Run took in a process's stead panics on Run's own stack:
		// report it as the process's panic, which it is.
		var stepPanic any
		if p := e.cur; p != nil && p.step != nil {
			if r := recover(); r != nil {
				stepPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
		}
		e.unpark()
		e.unwind()
		e.running = false
		if stepPanic != nil {
			panic(stepPanic)
		}
	}()
	e.cbs = slices.Grow(e.cbs, len(e.procs)) // a callback each
	limit := e.LivelockLimit
	if limit <= 0 {
		limit = 50_000_000
	}
	poll := e.ctr.Dispatches
	for {
		if len(e.pend) == 0 {
			if len(e.parked) == 0 {
				break
			}
			e.wake(e.parked[0], e.key) // a parked process's next step is the next event
			continue
		}
		ev := e.pend.pop()
		if len(e.parked) > 0 && !e.settle(&ev) {
			continue
		}
		if e.ctr.Dispatches >= poll {
			if poll = e.ctr.Dispatches + cancelStride; e.stop.Load() {
				return ErrCancelled
			}
		}
		e.ctr.Dispatches++
		at := ev.at
		e.key = ev.key()
		var p *Proc // nil: the event is a callback
		if ev.who >= 0 {
			p = e.procs[ev.who]
		}
		if at < e.now {
			panic("sim: time went backwards")
		}
		if at == e.lastDispatch {
			e.sameTimeCount++
			if e.sameTimeCount > limit-livelockWindow {
				if e.sameTimeBy == nil {
					e.sameTimeBy = make(map[string]int)
				}
				e.sameTimeBy[e.eventOrigin(ev)]++
			}
			if e.sameTimeCount > limit {
				panic(fmt.Sprintf("sim: virtual livelock at t=%v (>%d events without advancing time); stuck process: %s",
					e.now, limit, e.livelockCulprit()))
			}
		} else {
			e.sameTimeCount = 0
			e.lastDispatch = at
			e.sameTimeBy = nil
		}
		e.now = at
		if p != nil && p.step != nil {
			// The process sits in Poll: take its next step here, and file
			// the wake-up the step asks for as Poll filed the first.
			e.cur = p
			d := e.runStep(p, p.step)
			e.cur = nil
			if d >= 0 {
				e.ctr.Steps++
				e.pend.push(e.event(e.file(&p.f, d), ev.who))
				continue
			}
			if d == parkStep {
				e.ctr.Steps++
				continue
			}
			p.step = nil // Poll is over: resume the process, in this dispatch
		}
		if p == nil {
			e.ctr.Callbacks++
			// Vacate the slot first: fn may call After, which may reuse it
			// or grow the slab.
			c := &e.cbs[^ev.who]
			fn := c.fn
			e.cbSrc = c.src
			*c = callback{next: e.cbFree}
			e.cbFree = ^ev.who
			fn()
			e.cbSrc = ""
			continue
		}
		if len(p.rest) > 0 {
			// The process sits in AdvanceEach: file its next delay here, as
			// it would on resuming, under the key it would take.
			e.ctr.Chained++
			e.pend.push(e.event(e.file(&p.f, p.rest[0]), ev.who))
			p.rest = p.rest[1:]
			continue
		}
		e.ctr.ProcSwitches++
		if p.state != stateRunnable {
			panic(fmt.Sprintf("sim: dispatching %s in state %v", p.name, p.state))
		}
		p.state = stateRunning
		e.cur = p
		p.co.next()
		e.cur = nil
		if p.state == stateDone {
			p.release()
			if p.panicked != nil {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicked))
			}
		}
	}
	if e.live > 0 {
		var blocked []string
		for _, p := range e.procs {
			if p.state == stateBlocked || p.state == stateRunnable {
				blocked = append(blocked, fmt.Sprintf("%s: %s (%s %s)", p.name, p.state, p.waitKind, p.waitName))
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: e.now, Procs: blocked}
	}
	return nil
}

// unwind terminates every unfinished process, one spawned as it unwinds
// included, by resuming it once with its cancel flag set: a started body
// panics out of yield, an unstarted one is never called. So Run leaves no
// body running, and every coroutine but a Goexit's goes back on the idle
// list. It runs in Run's own context, where every process is parked.
func (e *Env) unwind() {
	for i := 0; i < len(e.procs); i++ {
		if p := e.procs[i]; p.state != stateDone {
			p.cancel = true
			p.co.next()
			p.release()
		}
	}
}

// finish retires a process whose body has returned or will never run.
func (p *Proc) finish() {
	p.state = stateDone
	p.env.live--
}

// eventOrigin names the source of a dispatched event for diagnostics.
func (e *Env) eventOrigin(ev event) string {
	if ev.who >= 0 {
		return e.procs[ev.who].name
	}
	if src := e.cbs[^ev.who].src; src != "" {
		return src + " (callback)"
	}
	return "scheduler callback"
}

// livelockCulprit names the origin responsible for the most dispatches in
// the final window before the livelock limit, ties broken alphabetically.
func (e *Env) livelockCulprit() string {
	culprit, max := "unknown", 0
	for src, n := range e.sameTimeBy {
		if n > max || (n == max && src < culprit) {
			culprit, max = src, n
		}
	}
	return fmt.Sprintf("%q (%d of last %d dispatches)", culprit, max, livelockWindow)
}

// yield returns control to Run. The process must already have arranged
// to be woken (a scheduled resume event or registration on a primitive's
// wait list). A cancelled process does not switch: a deferred call of its
// unwinding body that blocks again unwinds at once.
func (p *Proc) yield() {
	if !p.cancel {
		p.co.yield(struct{}{})
	}
	if p.cancel {
		panic(procCancelled{})
	}
}

// block parks the process until something calls makeRunnable on it; kind
// and name say which primitive it waits on.
func (p *Proc) block(kind, name string) {
	if e := p.env; e.stepping != nil {
		panic(e.blockedInStep(kind + " " + name))
	}
	p.state = stateBlocked
	p.waitKind, p.waitName = kind, name
	p.yield()
}

// Advance blocks the process for virtual duration d. d must be >= 0;
// Advance(0) yields to other processes scheduled at the current instant.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	e := p.env
	if e.stepping != nil {
		panic(e.blockedInStep("Advance"))
	}
	e.pend.push(e.event(e.file(&p.f, d), int32(p.id)))
	p.state = stateRunnable
	p.yield()
}

// chainCap is how many delays after the first an AdvanceEach files in one
// switch (an event's overhead, state save and Spin need two); a longer run
// switches once per chainCap+1.
const chainCap = 3

// AdvanceEach is exactly
//
//	for _, d := range ds {
//		p.Advance(d)
//	}
//
// — the same filings under the same keys, at the same dispatches — but
// the process files only the first delay and yields once: Run itself
// files each later one as it dispatches the wake-up before, and switches
// into the process when the last has passed. A run of charges with
// nothing between them so costs one process switch.
func (p *Proc) AdvanceEach(ds ...Time) {
	for len(ds) > 0 {
		n := min(len(ds)-1, chainCap)
		for i, d := range ds[1 : 1+n] {
			if d < 0 {
				panic("sim: Advance with negative duration")
			}
			p.chain[i] = d
		}
		p.rest = p.chain[:n]
		p.Advance(ds[0])
		ds = ds[1+n:]
	}
}

// Poll is exactly
//
//	for d := step.Step(); d >= 0; d = step.Step() {
//		p.Advance(d)
//	}
//
// — the same events at the same times in the same order — but only the
// first step runs in the process: Run itself takes every later one when
// it dispatches the process's wake-up, and switches into the process, in
// that same dispatch, only once a step returns a negative duration. A
// loop that wakes, looks and goes back to sleep so costs no process
// switch per look.
//
// A step runs to completion at one instant and must not block: it may
// use whatever a scheduler callback may (Unlock, Put, Broadcast, After,
// Spawn, TryGet, Mutex.TryAcquire), and panics if it reaches
// Advance or a primitive that would park the process.
func (p *Proc) Poll(step Stepper) {
	e := p.env
	if e.stepping != nil {
		panic(e.blockedInStep("Poll"))
	}
	if d := e.runStep(p, step); d >= 0 {
		e.pend.push(e.event(e.file(&p.f, d), int32(p.id)))
	} else if d != parkStep {
		return
	}
	p.state = stateRunnable
	p.step = step
	p.yield()
}

// A Stepper is what Poll steps: Step looks once and returns the delay to
// its next look, or a negative one to end the Poll.
type Stepper interface{ Step() Time }

// runStep takes one Poll step of p with the blocking primitives disarmed.
func (e *Env) runStep(p *Proc, step Stepper) Time {
	e.stepping = p
	defer e.stepDone()
	return step.Step()
}

func (e *Env) stepDone() { e.stepping = nil }

// blockedInStep is the panic for a Poll step that reached what, a
// primitive that blocks.
func (e *Env) blockedInStep(what string) string {
	return fmt.Sprintf("sim: process %q reached %s inside a Poll step, which must not block", e.stepping.name, what)
}
