package sim

import "fmt"

// Mutex is a simulated mutual-exclusion lock. Contention is expressed in
// virtual time: a process that finds the lock held blocks until the holder
// releases it, and waiters acquire in FIFO order (deterministic).
//
// An optional HoldCost can be charged automatically: if non-zero, Lock
// advances the acquiring process by HoldCost before returning, modelling
// the critical-section entry cost (cache-line transfer, atomic RMW).
type Mutex struct {
	Name     string
	HoldCost Time

	holder  *Proc
	waiters waitList
	watch   *Parked // the parked process whose steps take m, if any
	// Contention statistics (virtual time spent blocked, acquisitions).
	WaitTime  Time
	Acquires  int64
	Contended int64
}

// Lock acquires m, blocking p in virtual time while m is held.
func (m *Mutex) Lock(p *Proc) {
	m.acquire(p)
	if m.HoldCost > 0 {
		p.Advance(m.HoldCost)
	}
}

// LockFor is Lock, then p.Advance(d), in one process switch (AdvanceEach).
func (m *Mutex) LockFor(p *Proc, d Time) {
	m.acquire(p)
	if m.HoldCost > 0 {
		p.AdvanceEach(m.HoldCost, d)
	} else {
		p.Advance(d)
	}
}

// acquire is Lock without the entry cost.
func (m *Mutex) acquire(p *Proc) {
	m.Wake()
	m.Acquires++
	if m.holder != nil {
		m.Contended++
		start := p.Now()
		m.waiters.push(p)
		p.block("mutex", m.Name)
		m.WaitTime += p.Now() - start
		// Ownership was transferred to us by Unlock.
		if m.holder != p {
			panic("sim: mutex handoff failed")
		}
	} else {
		m.holder = p
	}
}

// TryAcquire acquires m if it is free, without blocking and without the
// charge: it leaves HoldCost for the caller to let pass, so it never
// advances p and a Poll step may call it and return the cost as its next
// delay.
func (m *Mutex) TryAcquire(p *Proc) bool {
	m.Wake()
	if m.holder != nil {
		return false
	}
	m.Acquires++
	m.holder = p
	return true
}

// Wake brings the process parked taking m, if any, up to date: Lock and
// TryAcquire call it, and so must whatever else reads m during a run.
func (m *Mutex) Wake() {
	if m.watch != nil {
		m.watch.Wake()
	}
}

// Unlock releases m, handing it to the longest-waiting process if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s unlocking mutex %q held by %v", p.name, m.Name, holderName(m.holder)))
	}
	if m.waiters.head == nil {
		m.holder = nil
		return
	}
	m.holder = m.waiters.pop()
	p.env.makeRunnable(m.holder)
}

func holderName(p *Proc) string {
	if p == nil {
		return "<nobody>"
	}
	return p.name
}

// Barrier is a simulated cyclic barrier for a fixed set of participants,
// the analogue of pthread_barrier_t in the paper's Algorithm 1. The last
// arriving process releases all others at the current virtual time.
type Barrier struct {
	Name string
	N    int

	arrived int
	waiting waitList
	// WaitTime accumulates the total virtual time processes spent parked at
	// the barrier (the "dashed line" idle time in the paper's Figure 1).
	WaitTime Time
	Rounds   uint64
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(name string, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier with n <= 0")
	}
	return &Barrier{Name: name, N: n}
}

// Generation returns the number of completed barrier rounds.
func (b *Barrier) Generation() uint64 { return b.Rounds }

// Wait blocks p until all N participants have arrived.
func (b *Barrier) Wait(p *Proc) {
	if b.arrived+1 == b.N {
		b.waiting.wakeAll(p.env)
		b.arrived = 0
		b.Rounds++
		return
	}
	b.arrived++
	b.waiting.push(p)
	start := p.Now()
	p.block("barrier", b.Name)
	b.WaitTime += p.Now() - start
}

// Queue is a simulated unbounded FIFO queue of arbitrary items, used for
// mailboxes between simulated threads. Get blocks in virtual time until an
// item is available; Put never blocks.
type Queue struct {
	Name    string
	items   []any
	getters waitList
	// MaxLen tracks the high-water mark (queue occupancy, which CA-GVT's
	// concluding remarks mention as an alternative synchronization signal).
	MaxLen int
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends v, waking the longest-blocked getter if any. Callable from
// process context.
func (q *Queue) Put(p *Proc, v any) { q.put(p.env, v) }

// PutNB appends v from scheduler-callback context (e.g. a fabric delivery).
func (q *Queue) PutNB(env *Env, v any) { q.put(env, v) }

func (q *Queue) put(env *Env, v any) {
	if q.getters.head != nil {
		g := q.getters.pop()
		g.xfer = v
		env.makeRunnable(g)
		return
	}
	q.items = append(q.items, v)
	if len(q.items) > q.MaxLen {
		q.MaxLen = len(q.items)
	}
}

// Get removes and returns the oldest item, blocking p until one exists.
func (q *Queue) Get(p *Proc) any {
	if v, ok := q.TryGet(); ok {
		return v
	}
	q.getters.push(p)
	p.block("queue", q.Name)
	v := p.xfer
	p.xfer = nil
	return v
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue) TryGet() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return v, true
}

// Cond is a simulated condition variable: processes Wait until another
// process (or a scheduler callback) Broadcasts. There is no associated
// lock; under the kernel's run-to-block semantics a caller re-checks its
// predicate after waking, exactly like a pthread condvar loop.
type Cond struct {
	Name    string
	waiters waitList
}

// Wait blocks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.block("cond", c.Name)
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast(env *Env) { c.waiters.wakeAll(env) }

// waitList is a FIFO of blocked processes threaded through them (a process
// waits on one primitive at a time): joining one allocates nothing.
type waitList struct{ head, tail *Proc }

func (l *waitList) push(p *Proc) {
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.link = p
	}
	l.tail = p
}

func (l *waitList) pop() *Proc {
	p := l.head
	if l.head, p.link = p.link, nil; l.head == nil {
		l.tail = nil
	}
	return p
}

// wakeAll makes every waiter runnable, longest-waiting first, and empties l.
func (l *waitList) wakeAll(env *Env) {
	for l.head != nil {
		env.makeRunnable(l.pop())
	}
}
