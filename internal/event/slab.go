package event

import "repro/internal/stash"

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

	// From, if set, is where the slab carves its arrays: an engine's kept
	// arrays, whose values all die when its run ends. A slab without one
	// (a model factory's, whose values live as long as their models)
	// makes every array.
	From *stash.Arrays[T]

	free []T // the rest of the current array
	made int
}

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.free = s.From.Make(min(max(s.made, s.First, 1), slabMax))
	}
	v := &s.free[0]
	s.free = s.free[1:]
	s.made++
	return v
}

// Made returns how many values New has handed out.
func (s *Slab[T]) Made() int { return s.made }
