package harness

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool with a bounded submission queue. It
// is the execution substrate shared by the experiment executor (which
// fans a plan's cells across host cores) and the simd job service
// (which needs admission control: TrySubmit refuses work instead of
// blocking when the queue is full, so an HTTP front-end can answer 429).
//
// Lifecycle: NewPool starts the workers immediately; Close stops
// admissions, lets the workers drain everything already queued, and
// waits for them to exit. Closing twice is safe.
type Pool struct {
	tasks   chan func()
	workers int
	busy    atomic.Int64 // workers currently inside a task

	mu        sync.Mutex
	closed    bool
	submitted int64
	rejected  int64

	wg sync.WaitGroup
}

// PoolStats is a point-in-time snapshot of pool accounting.
type PoolStats struct {
	Workers   int   // worker goroutines
	Busy      int   // workers currently executing a task
	QueueCap  int   // bounded queue capacity
	QueueLen  int   // tasks waiting (not yet picked up)
	Submitted int64 // accepted tasks since construction
	Rejected  int64 // TrySubmit refusals (queue full or closed)
}

// NewPool starts workers goroutines consuming from a queue of the given
// capacity. workers is clamped to at least 1; depth to at least 0 (a
// zero-depth queue accepts a task only when a worker is ready for it).
func NewPool(workers, depth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{tasks: make(chan func(), depth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				p.busy.Add(1)
				fn()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// TrySubmit offers fn to the pool without blocking. It reports false —
// and runs nothing — when the queue is full or the pool is closed.
func (p *Pool) TrySubmit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.rejected++
		return false
	}
	select {
	case p.tasks <- fn:
		p.submitted++
		return true
	default:
		p.rejected++
		return false
	}
}

// Close stops admissions, drains the queue (already-accepted tasks all
// run) and waits for the workers to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	if !already {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:   p.workers,
		Busy:      int(p.busy.Load()),
		QueueCap:  cap(p.tasks),
		QueueLen:  len(p.tasks),
		Submitted: p.submitted,
		Rejected:  p.rejected,
	}
}
