package event

import "fmt"

// Pool is a free list of Event objects. Time Warp churns through events
// at a furious rate — every processed event is eventually either
// annihilated by an anti-message or fossil-collected when GVT passes it —
// so the engine gives each simulated node one Pool and recycles events at
// exactly those two points instead of leaving them to the garbage
// collector. The pool is deliberately unsynchronized: the cooperative
// kernel guarantees at most one goroutine touches a node at any instant.
//
// In debug mode every freed event is filled with poison values and the
// poison is re-verified when the event is handed out again, so a write
// through a stale pointer (use-after-recycle) panics at the Get that
// would otherwise silently corrupt a live event.
type Pool struct {
	free  []*Event
	slab  []Event // the fresh events not yet handed out
	debug bool

	// Stats, all monotone counters.
	News uint64 // events handed out fresh because the free list was empty
	Gets uint64 // events handed out (recycled; excludes News)
	Puts uint64 // events returned to the free list
}

// NewPool returns an empty pool. With debug set, freed events are
// poisoned and verified on reuse.
func NewPool(debug bool) *Pool { return &Pool{debug: debug} }

// Poison sentinels: values no live event carries (negative virtual time,
// out-of-range LP IDs) so an intact poison pattern proves nothing wrote
// to the event while it sat on the free list.
const (
	poisonTime  = -271828.1828459045
	poisonID    = 0xDEADBEEF
	poisonMatch = 0xFEEDFACECAFEBEEF
	poisonKind  = 0xDEAD
	poisonColor = 0xEE
)

// slabMax caps a slab, the []Event fresh events are carved from. A new slab
// holds as many events as the pool has made so far, up to slabMax: a
// high-water mark of N events costs O(log N) allocations, and at most half
// of a slab sits unused.
const slabMax = 256

// Get returns a zeroed event, recycling from the free list when possible.
func (p *Pool) Get() *Event {
	n := len(p.free)
	if n == 0 {
		if len(p.slab) == 0 {
			p.slab = make([]Event, min(max(p.News, 1), slabMax))
		}
		e := &p.slab[0]
		p.slab = p.slab[1:]
		p.News++
		return e
	}
	e := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	if p.debug {
		p.checkPoison(e)
	}
	*e = Event{}
	p.Gets++
	return e
}

// Put returns e to the free list. Double frees panic in every mode; in
// debug mode the event is additionally poisoned.
func (p *Pool) Put(e *Event) {
	if e == nil {
		return
	}
	if e.freed {
		panic(fmt.Sprintf("event: double free of %v", e))
	}
	if p.debug {
		p.poison(e)
	} else {
		e.Data = nil // don't pin model payloads while pooled
	}
	e.freed = true
	p.free = append(p.free, e)
	p.Puts++
}

// Len returns the current free-list depth.
func (p *Pool) Len() int { return len(p.free) }

func (p *Pool) poison(e *Event) {
	e.Stamp.T = poisonTime
	e.Stamp.Src = poisonID
	e.Stamp.Seq = poisonMatch
	e.SendTime = poisonTime
	e.Src = poisonID
	e.Dst = poisonID
	e.MatchID = poisonMatch
	e.AckID = poisonMatch
	e.Anti = true
	e.Color = poisonColor
	e.Kind = poisonKind
	e.Data = nil
}

func (p *Pool) checkPoison(e *Event) {
	ok := e.Stamp.T == poisonTime &&
		e.Stamp.Src == poisonID &&
		e.Stamp.Seq == poisonMatch &&
		e.SendTime == poisonTime &&
		e.Src == poisonID &&
		e.Dst == poisonID &&
		e.MatchID == poisonMatch &&
		e.AckID == poisonMatch &&
		e.Anti &&
		e.Color == poisonColor &&
		e.Kind == poisonKind &&
		e.Data == nil
	if !ok {
		panic(fmt.Sprintf("event: freed event was written through a stale pointer (use-after-recycle): %v", e))
	}
}
