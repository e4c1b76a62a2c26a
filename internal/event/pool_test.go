package event

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vtime"
)

func TestPoolRecycles(t *testing.T) {
	p := NewPool(false)
	e := p.Get()
	if p.News != 1 || p.Gets != 0 {
		t.Fatalf("fresh Get: News=%d Gets=%d", p.News, p.Gets)
	}
	e.Stamp = vtime.Stamp{T: 3, Src: 7, Seq: 9}
	e.Data = []byte{1, 2, 3}
	p.Put(e)
	if !e.Freed() {
		t.Fatal("Put did not mark event freed")
	}
	if e.Data != nil {
		t.Fatal("Put retained payload reference")
	}
	got := p.Get()
	if got != e {
		t.Fatal("Get did not recycle the freed event")
	}
	if got.Freed() || got.Stamp != (vtime.Stamp{}) || got.Data != nil {
		t.Fatalf("recycled event not zeroed: %+v", got)
	}
	if p.Gets != 1 || p.Puts != 1 {
		t.Fatalf("counters: Gets=%d Puts=%d", p.Gets, p.Puts)
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	for _, debug := range []bool{false, true} {
		p := NewPool(debug)
		e := p.Get()
		p.Put(e)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("debug=%v: double free did not panic", debug)
				}
				if !strings.Contains(r.(string), "double free") {
					t.Fatalf("debug=%v: unexpected panic %v", debug, r)
				}
			}()
			p.Put(e)
		}()
	}
}

// TestPoolPoisonDetectsUseAfterRecycle is the contract the core engine's
// PoolDebug mode relies on: writing through a pointer to a freed event is
// caught at the next Get, not silently absorbed.
func TestPoolPoisonDetectsUseAfterRecycle(t *testing.T) {
	p := NewPool(true)
	stale := p.Get()
	p.Put(stale)
	stale.MatchID = 42 // the bug: a write through a stale pointer

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("use-after-recycle was not detected")
		}
		if !strings.Contains(r.(string), "use-after-recycle") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Get()
}

// TestPoolPoisonCleanReuse: an untouched freed event passes the poison
// check and comes back zeroed.
func TestPoolPoisonCleanReuse(t *testing.T) {
	p := NewPool(true)
	e := p.Get()
	e.Stamp.T = 5
	e.Kind = 3
	p.Put(e)
	got := p.Get()
	if got != e {
		t.Fatal("expected recycled event")
	}
	if got.Stamp.T != 0 || got.Kind != 0 || got.Anti || got.Freed() {
		t.Fatalf("recycled event not zeroed: %+v", got)
	}
}

func TestAntiCopyInto(t *testing.T) {
	e := &Event{Stamp: vtime.Stamp{T: 2, Src: 1, Seq: 4}, Src: 1, Dst: 2, MatchID: 99, Data: []byte{7}}
	var a Event
	got := e.AntiCopyInto(&a)
	want := e.AntiCopy()
	if got != &a {
		t.Fatal("AntiCopyInto did not return its argument")
	}
	if got.Stamp != want.Stamp || got.SendTime != want.SendTime ||
		got.Src != want.Src || got.Dst != want.Dst ||
		got.MatchID != want.MatchID || got.AckID != want.AckID ||
		got.Anti != want.Anti || got.Color != want.Color ||
		got.Kind != want.Kind || got.Data != nil {
		t.Fatalf("AntiCopyInto = %+v, want %+v", got, want)
	}
	if !got.Anti || !got.Matches(e) {
		t.Fatalf("anti does not match original: %+v", got)
	}
}

// TestPoolSlabs: an empty pool reaches a high-water mark of N events in at
// most ⌈log₂N⌉+1 allocations (each slab as long as what the pool has made
// so far, up to slabMax, so this holds to N = 3·slabMax), hands out N
// distinct zeroed events and counts each in News; and poisoning still
// catches a stale write to a slab-born event.
func TestPoolSlabs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 255, 256, 257, 512, 768} {
		bound := float64(bits.Len(uint(n-1))) + 1 // ⌈log₂n⌉+1
		if allocs := testing.AllocsPerRun(5, func() {
			var p Pool
			for range n {
				p.Get()
			}
		}); allocs > bound {
			t.Errorf("%d Gets from an empty pool: %v allocations, bound %v", n, allocs, bound)
		}
		p := NewPool(false)
		seen := make(map[*Event]bool, n)
		for range n {
			e := p.Get()
			if seen[e] {
				t.Fatalf("%d Gets: an event handed out twice", n)
			}
			seen[e] = true
			if !reflect.ValueOf(*e).IsZero() {
				t.Fatalf("%d Gets: a fresh event not zeroed: %+v", n, e)
			}
			e.Stamp.T, e.MatchID = 1, 2 // a live event's writes must not reach another
		}
		if p.News != uint64(n) || p.Gets != 0 {
			t.Errorf("%d Gets: News=%d Gets=%d", n, p.News, p.Gets)
		}
	}

	p := NewPool(true)
	p.Get()
	p.Get()
	p.Get()
	stale := p.Get() // the second event of the third slab
	p.Get()
	p.Put(stale)
	stale.Kind = 7
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "use-after-recycle") {
			t.Fatalf("a stale write to a slab-born event: recovered %v", r)
		}
	}()
	p.Get()
}

// BenchmarkPoolGet prices a Get: fresh, from slabs (the pool replaced
// every 1024 Gets, so the slabs stay short), and recycled, a Put and a
// Get on a warm free list.
func BenchmarkPoolGet(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPool(false)
		for i := range b.N {
			if i%1024 == 0 {
				p = NewPool(false)
			}
			p.Get()
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		p := NewPool(false)
		p.Put(p.Get())
		for range b.N {
			p.Put(p.Get())
		}
	})
}
