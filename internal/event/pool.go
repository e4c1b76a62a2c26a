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
	slab  Slab[Event] // where fresh events come from
	debug bool

	// Stats, all monotone counters.
	News uint64 // events handed out fresh because the free list was empty
	Gets uint64 // events handed out (recycled; excludes News)
	Puts uint64 // events returned to the free list
}

// NewPool returns an empty pool. With debug set, freed events are
// poisoned and verified on reuse.
func NewPool(debug bool) *Pool { return &Pool{debug: debug} }

// Reserve sizes p for n events in use at once: one array and free list.
func (p *Pool) Reserve(n int) {
	p.slab.First = n
	p.free = make([]*Event, 0, n)
}

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

// slabMax caps the array a Slab carves from. A new array holds as many
// values as the slab has handed out so far, up to slabMax: N values cost
// O(log N) + N/slabMax allocations, and at most half of an array sits
// unused.
const slabMax = 256

// Slab hands out fresh zero values of T carved from arrays it grows as
// slabMax says, instead of allocating each one: a Pool's fresh events,
// what a build makes once per LP (a factory's models, a run's seed
// events), and a Time Warp worker's history entries and send records. The
// zero Slab is ready. Like Pool it is unsynchronized, and an array stays
// live while any value carved from it does.
type Slab[T any] struct {
	// First, if set, is how many values the first array holds (up to
	// slabMax), for a user that knows it will need about that many.
	First int

	free []T // the rest of the current array
	made int
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(max(s.made, s.First, 1), slabMax))
	}
	v := &s.free[0]
	s.free = s.free[1:]
	s.made++
	return v
}

// Made returns how many values New has handed out.
func (s *Slab[T]) Made() int { return s.made }

// Get returns a zeroed event, recycling from the free list when possible.
func (p *Pool) Get() *Event {
	n := len(p.free)
	if n == 0 {
		p.News++
		return p.slab.New()
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
