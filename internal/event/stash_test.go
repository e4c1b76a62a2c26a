package event

import (
	"reflect"
	"testing"
)

// logEntry has what a Time Warp history entry holds that could pin memory:
// a snapshot in an any, a payload, an event.
type logEntry struct {
	n    int
	snap any
	data []byte
	ev   *Event
}

// TestStashReturnsZeroArrays: the arrays a slab releases come back to the
// next slab of its stash, every value zero — the snapshot's any, the
// payload and the pointers too, so the stash pins nothing a run left in
// them — and a pool's released events come back zero, off any free list.
func TestStashReturnsZeroArrays(t *testing.T) {
	var st Stash[logEntry]
	s := Slab[logEntry]{First: 4, Stash: &st}
	carved := map[*logEntry]bool{}
	for range 4 + 4 + 8 { // every value of the slab's three arrays
		e := s.New()
		*e = logEntry{n: 1, snap: &e.n, data: []byte{1}, ev: &Event{}}
		carved[e] = true
	}
	s.Release()
	if st.Len() == 0 {
		t.Fatal("a released slab stashed no array")
	}
	next := Slab[logEntry]{Stash: &st}
	for i := range 10 {
		e := next.New()
		if !carved[e] {
			t.Fatalf("value %d of a slab on a warm stash is not from the released arrays", i)
		}
		if !reflect.ValueOf(*e).IsZero() {
			t.Fatalf("value %d from the stash is not zero: %+v", i, *e)
		}
	}

	var events Stash[Event]
	p := &Pool{slab: Slab[Event]{Stash: &events}}
	a, b := p.Get(), p.Get()
	a.Data, b.Data = []byte{7}, []byte{8}
	p.Put(a) // on the free list when the run ends
	p.Release()
	q := Pool{slab: Slab[Event]{Stash: &events}}
	for range 2 {
		e := q.Get()
		if e != a && e != b {
			t.Fatal("a pool on a warm stash made an event")
		}
		if e.Freed() || !reflect.ValueOf(*e).IsZero() {
			t.Fatalf("an event from the stash is not zero: %+v, freed %v", *e, e.Freed())
		}
	}
	if q.News != 2 || q.Gets != 0 {
		t.Errorf("stashed events counted News=%d Gets=%d, want 2 and 0", q.News, q.Gets)
	}
}

// TestStashBounded: however many arrays slabs release, a stash keeps at
// most StashMax full arrays' worth of values and StashMax records, and a
// slab on a warm stash makes nothing, its record of arrays included.
func TestStashBounded(t *testing.T) {
	var st Stash[logEntry]
	slabs := make([]Slab[logEntry], 2*StashMax)
	for i := range slabs {
		slabs[i] = Slab[logEntry]{First: slabMax, Stash: &st}
		slabs[i].New()
	}
	for i := range slabs {
		slabs[i].Release()
	}
	if n := st.Len(); n != StashMax*slabMax {
		t.Errorf("%d slabs released a full array each: the stash keeps %d values, want StashMax × %d = %d",
			len(slabs), n, slabMax, StashMax*slabMax)
	}
	if n := len(st.records); n != StashMax {
		t.Errorf("the stash keeps %d records, want StashMax = %d", n, StashMax)
	}

	warm := &slabs[0]
	if allocs := testing.AllocsPerRun(10, func() {
		for range 3 * slabMax {
			warm.New()
		}
		warm.Release()
	}); allocs != 0 {
		t.Errorf("a slab on a warm stash: %v allocations a run, want 0", allocs)
	}

	st.Drop()
	if st.Len() != 0 {
		t.Fatal("Drop left arrays")
	}
	var plain Slab[logEntry]
	plain.New()
	plain.Release()
	if st.Len() != 0 {
		t.Fatal("a slab without a stash stashed an array")
	}
}
