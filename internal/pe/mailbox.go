package pe

import "repro/internal/sim"

// Mailbox is a queue simulated threads deposit into under a simulated
// lock and one of them takes from in batches: a worker's inbox, or the
// node's outbound structure the MPI thread drains. Draining ping-pongs
// between two backing arrays (Take swaps the spare in, Recycle retires the
// drained batch as the next spare), so the steady state allocates nothing.
type Mailbox[T any] struct {
	mu    *sim.Mutex
	cost  sim.Time
	items []T
	spare []T
}

// NewMailbox returns a mailbox guarded by mu (several mailboxes may share
// one lock) whose depositors are charged cost inside the critical section.
func NewMailbox[T any](mu *sim.Mutex, cost sim.Time) Mailbox[T] {
	return Mailbox[T]{mu: mu, cost: cost}
}

// Deposit appends v, charging the depositing thread p.
func (m *Mailbox[T]) Deposit(p *sim.Proc, v T) {
	m.mu.LockFor(p, m.cost)
	m.items = append(m.items, v)
	m.mu.Unlock(p)
}

// Take removes up to max items from the front (max <= 0: all) and returns
// them with the number left behind. It always pays the lock, also when
// there is nothing to take.
func (m *Mailbox[T]) Take(p *sim.Proc, max int) (batch []T, backlog int) {
	m.mu.Lock(p)
	switch n := len(m.items); {
	case n == 0: // nothing waiting: both arrays stay where they are
	case max > 0 && n > max:
		// Capped at its length, so as a spare this prefix can only grow
		// into the part of the array the queue has left behind.
		batch, m.items = m.items[:max:max], m.items[max:]
	default:
		batch, m.items, m.spare = m.items, m.spare, nil
	}
	backlog = len(m.items)
	m.mu.Unlock(p)
	return batch, backlog
}

// Recycle retires a batch the caller is done with as the next spare
// array. It takes no simulated lock: the cooperative kernel runs one
// thread at a time, and two racing drains at worst drop a spare.
func (m *Mailbox[T]) Recycle(batch []T) {
	if len(batch) == 0 {
		return
	}
	clear(batch)
	m.spare = batch[:0]
}

// Len returns the number of items waiting. Like Items it is a zero-cost
// peek: consistent because the kernel is cooperative.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Items returns the waiting items, for read-only inspection.
func (m *Mailbox[T]) Items() []T { return m.items }
