package event

import (
	"reflect"
	"testing"

	"repro/internal/stash"
)

// logEntry has what a Time Warp history entry holds that could pin memory:
// a snapshot in an any, a payload, an event.
type logEntry struct {
	n    int
	snap any
	data []byte
	ev   *Event
}

// TestSlabReusesKeptArrays: once kept arrays have grown to what a run's
// slab carved, the next run's slab takes the very values the run before
// carved, every one zero — the snapshot's any, the payload and the
// pointers too, so kept arrays pin nothing a run left in them — and makes
// no array; a pool's events come back zero too, off any free list, and
// count as fresh.
func TestSlabReusesKeptArrays(t *testing.T) {
	var from stash.Arrays[logEntry]
	carve := func() map[*logEntry]bool {
		s := Slab[logEntry]{First: 4, From: &from}
		carved := map[*logEntry]bool{}
		for range 4 + 4 + 8 { // every value of the slab's three arrays
			e := s.New()
			if !reflect.ValueOf(*e).IsZero() {
				t.Fatalf("a value from the kept arrays is not zero: %+v", *e)
			}
			*e = logEntry{n: 1, snap: &e.n, data: []byte{1}, ev: &Event{}}
			carved[e] = true
		}
		from.Reset()
		return carved
	}
	carve() // the first run makes its arrays, and Reset one that holds them all
	warm := carve()
	if again := carve(); !reflect.DeepEqual(again, warm) {
		t.Error("a slab on warm arrays carved other values than the run before it")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s := Slab[logEntry]{First: 4, From: &from}
		for range 16 {
			s.New()
		}
		from.Reset()
	}); allocs != 0 {
		t.Errorf("a slab on warm arrays: %v allocations a run, want 0", allocs)
	}

	var events stash.Arrays[Event]
	run := func() (a, b *Event) {
		var p Pool
		p.Reserve(2, &events)
		a, b = p.Get(), p.Get()
		if a.Freed() || b.Freed() || !reflect.ValueOf(*a).IsZero() || !reflect.ValueOf(*b).IsZero() {
			t.Fatalf("events from the kept arrays are not zero: %+v %+v", *a, *b)
		}
		if p.News != 2 || p.Gets != 0 {
			t.Errorf("kept events counted News=%d Gets=%d, want 2 and 0", p.News, p.Gets)
		}
		a.Data, b.Data = []byte{7}, []byte{8}
		p.Put(a) // on the free list when the run ends
		events.Reset()
		return a, b
	}
	run()
	a, b := run()
	if c, d := run(); c != a || d != b {
		t.Error("a pool on warm arrays made its events")
	}
}
