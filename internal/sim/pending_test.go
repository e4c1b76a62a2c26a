package sim

import (
	"math/rand"
	"testing"
)

// refSet is the pending set at its plainest: every entry in one slice,
// the minimum found by looking at all of them.
type refSet []event

func (r *refSet) pop() (event, bool) {
	s := *r
	if len(s) == 0 {
		return event{}, false
	}
	m := 0
	for i := range s {
		if s[i].key().Before(s[m].key()) {
			m = i
		}
	}
	e := s[m]
	s[m] = s[len(s)-1]
	*r = s[:len(s)-1]
	return e, true
}

// checkPendingOrder runs one program against eventHeap and refSet and
// requires the same entries out in the same order. The program is a byte
// stream as the kernel could produce it — the clock is the time of the
// last entry out, an entry in is filed at it, and the Ties of entries filed
// at one instant come in no order — of (op, arg) pairs, by op%3:
//
//	0  a process wake-up arg ns ahead (Advance, Spawn, makeRunnable: arg 0)
//	1  a callback arg%4 ns ahead, so equal times are the common case
//	2  the next entry out (arg%3 of them, plus one)
//
// and at the end everything left comes out.
func checkPendingOrder(t *testing.T, ops []byte) {
	t.Helper()
	var (
		h    eventHeap
		ref  refSet
		now  Time
		n    uint32
		outs int
	)
	out := func() bool {
		want, ok := ref.pop()
		if len(h) == 0 || !ok {
			if len(h) != 0 || ok {
				t.Fatalf("entry %d out: the heap holds %d entries, the reference %v", outs, len(h), ok)
			}
			return false
		}
		if got := h.pop(); got != want {
			t.Fatalf("entry %d out: the heap gave %+v, the reference %+v", outs, got, want)
		}
		if want.at < now {
			t.Fatalf("entry %d out: time went backwards, %d after %d", outs, want.at, now)
		}
		now = want.at
		outs++
		return true
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%3, ops[i+1]
		n++
		tie := n * 0x9E3779B1 // distinct, and unordered
		switch op {
		case 0:
			e := event{at: now + Time(arg), filed: now, tie: tie, who: int32(arg % 5)}
			h.push(e)
			ref = append(ref, e)
		case 1:
			e := event{at: now + Time(arg%4), filed: now, tie: tie, who: ^int32(arg)}
			h.push(e)
			ref = append(ref, e)
		case 2:
			for n := 0; n <= int(arg%3) && out(); n++ {
			}
		}
	}
	for out() {
	}
}

// TestPendingMatchesReference: seeded random programs — bursts in and
// bursts out, most entries tied at one instant with others — leave the
// heap in the order a linear search gives.
func TestPendingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(50+rng.Intn(800)))
		// Each program leans its own way: mostly wake-ups, mostly pops, …
		var weight [3]int
		for i := range weight {
			weight[i] = 1 + rng.Intn(6)
		}
		total := weight[0] + weight[1] + weight[2]
		for i := 0; i+1 < len(ops); i += 2 {
			r := rng.Intn(total)
			op := 0
			for r >= weight[op] {
				r -= weight[op]
				op++
			}
			ops[i], ops[i+1] = byte(op), byte(rng.Intn(256))
		}
		checkPendingOrder(t, ops)
	}
}

// FuzzPendingOrder searches checkPendingOrder's programs for one that
// leaves the heap in another order than the reference.
func FuzzPendingOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 4, 0, 0, 2, 2, 1, 2, 2, 2})                              // everything at one instant: the Ties decide
	f.Add([]byte{0, 7, 1, 3, 2, 0, 0, 7, 1, 3, 2, 0, 0, 7, 1, 3, 2, 2, 2, 2})                  // wake-ups re-filed as they leave
	f.Add([]byte{0, 200, 0, 100, 0, 50, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1, 2, 2, 0, 9, 2, 2, 2, 2}) // a burst in, out in bursts
	f.Add([]byte{2, 0, 0, 3, 2, 2, 1, 5, 2, 1, 2, 1})                                          // pops of an empty heap between entries
	f.Fuzz(checkPendingOrder)
}
