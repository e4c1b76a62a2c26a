package event

import "sync"

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

	// Stash, if set, is where the slab takes its next array from before
	// making one, and where Release hands its arrays back: the slab of an
	// engine, whose values all die when its run ends. A slab without one
	// (a model factory's, whose values live as long as their models) makes
	// every array.
	Stash *Stash[T]

	free   []T   // the rest of the current array
	arrays [][]T // the arrays carved, for Release (Stash only)
	made   int
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		n := min(max(s.made, s.First, 1), slabMax)
		if s.Stash == nil {
			s.free = make([]T, n)
		} else {
			s.free = s.Stash.take(&s.arrays, n)
		}
	}
	v := &s.free[0]
	s.free = s.free[1:]
	s.made++
	return v
}

// Made returns how many values New has handed out.
func (s *Slab[T]) Made() int { return s.made }

// Release hands the arrays the slab carved back to its Stash, cleared, and
// leaves the slab as new. Every value it handed out must be dead: the next
// slab to take an array may be another engine's, on another goroutine.
func (s *Slab[T]) Release() {
	if s.arrays != nil {
		s.Stash.put(s.arrays)
	}
	s.free, s.arrays, s.made = nil, nil, 0
}

// StashMax bounds what a Stash keeps: StashMax full arrays' worth of
// values (16,384), in arrays of any length, and StashMax slabs' records of
// them. Two of the job service's workers running its default spec at once
// release 1,728 history entries and send records and 2,176 events, and
// the host benchmark's largest shape (tw-comp) 6,144 entries: room for
// either, and a bound on what an idle process pins.
const StashMax = 64

// A Stash keeps the arrays of engine slabs whose run has ended, cleared,
// for the next slabs of the same element type, in whichever engine and
// goroutine asks: a process that runs engine after engine (the job
// service, the harness's worker pool, a fuzz run) makes its working set
// once, as ROSS allocates a PE's event memory once. It also keeps the
// slabs' emptied records of their arrays, so a warm slab's bookkeeping
// allocates nothing either. It is an explicit list under a mutex, not a
// sync.Pool, which would empty itself at the second collection — and the
// collector runs between any two runs of a benchmark, a test or an idle
// daemon. The zero Stash is ready; declare one per element type.
type Stash[T any] struct {
	mu      sync.Mutex
	arrays  [][]T   // cleared, each for a slab's next array
	values  int     // the values arrays hold
	records [][][]T // emptied, each for a slab's first
}

// Events is the stash of event arrays: the node pools' and the seed
// slabs' of both engines.
var Events Stash[Event]

// take returns a slab's next array, which it wants n values long, and
// notes it in the slab's record *rec: the shortest stashed array of n
// values or more, else the longest stashed, else a new one. A run like
// the one before takes back the very lengths it carved, so it makes none.
func (st *Stash[T]) take(rec *[][]T, n int) []T {
	var a []T
	st.mu.Lock()
	if k := len(st.records); *rec == nil && k > 0 {
		*rec, st.records[k-1] = st.records[k-1], nil
		st.records = st.records[:k-1]
	}
	best := -1
	for i, b := range st.arrays {
		better := len(b) > len(a) // while none fits, a longer one
		if len(a) >= n {
			better = len(b) >= n && len(b) < len(a) // then a shorter one that fits
		}
		if best < 0 || better {
			best, a = i, b
		}
	}
	if best >= 0 {
		k := len(st.arrays) - 1
		st.arrays[best], st.arrays[k] = st.arrays[k], nil
		st.arrays = st.arrays[:k]
		st.values -= len(a)
	}
	st.mu.Unlock()
	if a == nil {
		a = make([]T, n)
	}
	*rec = append(*rec, a)
	return a
}

// put clears the arrays of a slab's record and keeps them, and the
// record, as far as StashMax allows.
func (st *Stash[T]) put(rec [][]T) {
	for _, a := range rec {
		clear(a)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, a := range rec {
		if st.values+len(a) <= StashMax*slabMax {
			st.arrays = append(st.arrays, a)
			st.values += len(a)
		}
	}
	if len(st.records) < StashMax {
		clear(rec)
		st.records = append(st.records, rec[:0])
	}
}

// Len returns how many values the stash keeps for the next slabs: at most
// StashMax × 256.
func (st *Stash[T]) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.values
}

// Drop empties the stash, so that a test's next run makes every array, as
// a run in a fresh process does.
func (st *Stash[T]) Drop() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.arrays, st.values, st.records = nil, 0, nil
}
