package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/vtime"
)

func ev(t float64, src uint32, seq uint64) *event.Event {
	return &event.Event{
		Stamp:   vtime.Stamp{T: t, Src: src, Seq: seq},
		Src:     event.LPID(src),
		MatchID: seq,
	}
}

func kinds() []string { return []string{"heap", "calendar"} }

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	New("splay")
}

func TestPushPopOrdered(t *testing.T) {
	for _, kind := range kinds() {
		q := New(kind)
		times := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
		for i, tt := range times {
			q.Push(ev(tt, 0, uint64(i)))
		}
		if q.Len() != len(times) {
			t.Fatalf("[%s] Len = %d", kind, q.Len())
		}
		prev := -1.0
		for q.Len() > 0 {
			e := q.Pop()
			if e.Stamp.T < prev {
				t.Fatalf("[%s] popped out of order: %v after %v", kind, e.Stamp.T, prev)
			}
			prev = e.Stamp.T
		}
		if q.Pop() != nil || q.Peek() != nil {
			t.Fatalf("[%s] empty queue returned non-nil", kind)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	for _, kind := range kinds() {
		q := New(kind)
		q.Push(ev(2, 0, 0))
		q.Push(ev(1, 0, 1))
		if q.Peek().Stamp.T != 1 || q.Len() != 2 {
			t.Fatalf("[%s] Peek broken", kind)
		}
		if q.Pop().Stamp.T != 1 || q.Len() != 1 {
			t.Fatalf("[%s] Pop after Peek broken", kind)
		}
	}
}

func TestTieBreakOrdering(t *testing.T) {
	for _, kind := range kinds() {
		q := New(kind)
		q.Push(ev(1, 2, 0))
		q.Push(ev(1, 1, 5))
		q.Push(ev(1, 1, 3))
		want := []vtime.Stamp{{T: 1, Src: 1, Seq: 3}, {T: 1, Src: 1, Seq: 5}, {T: 1, Src: 2, Seq: 0}}
		for i, w := range want {
			if got := q.Pop().Stamp; got != w {
				t.Fatalf("[%s] pop #%d = %v, want %v", kind, i, got, w)
			}
		}
	}
}

func TestRemoveMatching(t *testing.T) {
	for _, kind := range kinds() {
		q := New(kind)
		pos := ev(5, 1, 100)
		q.Push(ev(1, 0, 1))
		q.Push(pos)
		q.Push(ev(9, 2, 3))

		anti := pos.AntiCopy()
		got := q.RemoveMatching(anti)
		if got != pos {
			t.Fatalf("[%s] RemoveMatching = %v, want the positive", kind, got)
		}
		if q.Len() != 2 {
			t.Fatalf("[%s] Len after remove = %d", kind, q.Len())
		}
		if q.RemoveMatching(anti) != nil {
			t.Fatalf("[%s] second RemoveMatching found a ghost", kind)
		}
		// Heap order must survive removal.
		if q.Pop().Stamp.T != 1 || q.Pop().Stamp.T != 9 {
			t.Fatalf("[%s] order broken after removal", kind)
		}
	}
}

func TestRemoveMatchingRequiresOppositeSign(t *testing.T) {
	for _, kind := range kinds() {
		q := New(kind)
		anti := ev(5, 1, 100).AntiCopy()
		q.Push(anti) // an anti waiting in queue
		// A second identical anti must NOT annihilate the first.
		if q.RemoveMatching(anti.AntiCopy()) != nil {
			t.Fatalf("[%s] anti annihilated anti", kind)
		}
		// The positive does annihilate it.
		if q.RemoveMatching(ev(5, 1, 100)) == nil {
			t.Fatalf("[%s] positive failed to annihilate anti", kind)
		}
	}
}

func TestStragglerReinsertion(t *testing.T) {
	// Calendar queues must accept events earlier than the last pop.
	for _, kind := range kinds() {
		q := New(kind)
		for i := 0; i < 20; i++ {
			q.Push(ev(float64(i), 0, uint64(i)))
		}
		for i := 0; i < 10; i++ {
			q.Pop()
		}
		q.Push(ev(0.5, 9, 99)) // straggler far in the past
		if got := q.Pop().Stamp.T; got != 0.5 {
			t.Fatalf("[%s] straggler not surfaced: got %v", kind, got)
		}
	}
}

func TestLargeRandomAgainstSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, kind := range kinds() {
		q := New(kind)
		const n = 5000
		times := make([]float64, n)
		for i := range times {
			times[i] = r.Float64() * 1000
			q.Push(ev(times[i], uint32(i%7), uint64(i)))
		}
		sort.Float64s(times)
		for i := 0; i < n; i++ {
			e := q.Pop()
			if e == nil {
				t.Fatalf("[%s] queue ran dry at %d", kind, i)
			}
			if e.Stamp.T != times[i] {
				t.Fatalf("[%s] pop #%d = %v, want %v", kind, i, e.Stamp.T, times[i])
			}
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, kind := range kinds() {
		q := New(kind)
		var popped []float64
		pending := 0
		for step := 0; step < 20000; step++ {
			if pending == 0 || r.Intn(3) != 0 {
				q.Push(ev(r.Float64()*100, uint32(step%5), uint64(step)))
				pending++
			} else {
				popped = append(popped, q.Pop().Stamp.T)
				pending--
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.Pop().Stamp.T)
		}
		// Once all pushes stop, the drain must be sorted; interleaved pops
		// can go "backwards" only when a smaller push arrived after a pop,
		// so just validate the final drain segment.
		tail := popped[len(popped)-pending:]
		if !sort.Float64sAreSorted(tail) {
			t.Fatalf("[%s] final drain not sorted", kind)
		}
	}
}

func TestMinStampHelper(t *testing.T) {
	q := NewHeap()
	if q.MinStamp() != vtime.InfStamp {
		t.Error("empty MinStamp not Inf")
	}
	q.Push(ev(3, 1, 2))
	if q.MinStamp().T != 3 {
		t.Error("MinStamp wrong")
	}
}

// Property: both queues drain any batch in exactly stamp-sorted order.
func TestDrainSortedProperty(t *testing.T) {
	prop := func(raw []float64, srcs []uint32) bool {
		for _, kind := range kinds() {
			q := New(kind)
			n := len(raw)
			if n > 200 {
				n = 200
			}
			stamps := make([]vtime.Stamp, 0, n)
			for i := 0; i < n; i++ {
				tt := raw[i]
				if tt < 0 {
					tt = -tt
				}
				if tt > 1e12 || tt != tt {
					tt = 1
				}
				var src uint32
				if len(srcs) > 0 {
					src = srcs[i%len(srcs)] % 16
				}
				s := vtime.Stamp{T: tt, Src: src, Seq: uint64(i)}
				stamps = append(stamps, s)
				q.Push(&event.Event{Stamp: s, Src: event.LPID(src), MatchID: uint64(i)})
			}
			sort.Slice(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) })
			for i := 0; i < n; i++ {
				if got := q.Pop().Stamp; got != stamps[i] {
					return false
				}
			}
			if q.Pop() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: RemoveMatching never changes the relative order of the
// remaining events.
func TestRemoveMatchingPreservesOrderProperty(t *testing.T) {
	prop := func(raw []float64, pick uint8) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		if n > 100 {
			n = 100
		}
		for _, kind := range kinds() {
			q := New(kind)
			events := make([]*event.Event, n)
			for i := 0; i < n; i++ {
				tt := raw[i]
				if tt < 0 {
					tt = -tt
				}
				if tt > 1e12 || tt != tt {
					tt = float64(i)
				}
				events[i] = ev(tt, uint32(i%4), uint64(i))
				q.Push(events[i])
			}
			victim := events[int(pick)%n]
			if q.RemoveMatching(victim.AntiCopy()) != victim {
				return false
			}
			rest := make([]*event.Event, 0, n-1)
			for _, e := range events {
				if e != victim {
					rest = append(rest, e)
				}
			}
			sort.Slice(rest, func(i, j int) bool { return rest[i].Stamp.Before(rest[j].Stamp) })
			for _, want := range rest {
				if q.Pop() != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func benchQueue(b *testing.B, kind string) {
	r := rand.New(rand.NewSource(1))
	q := New(kind)
	// Steady-state hold model: keep ~4096 events, push+pop per iteration.
	for i := 0; i < 4096; i++ {
		q.Push(ev(r.Float64()*100, 0, uint64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		e.Stamp.T += r.Float64() * 10
		q.Push(e)
	}
}

func BenchmarkHeapHold(b *testing.B)     { benchQueue(b, "heap") }
func BenchmarkCalendarHold(b *testing.B) { benchQueue(b, "calendar") }
