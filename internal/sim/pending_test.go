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

// checkPendingOrder runs one program against pending and refSet and
// requires the same entries out in the same order. The program is a byte
// stream as the kernel could produce it — the clock is the time of the
// last entry out, an entry in is filed at it, and the Ties of entries filed
// at one instant come in no order:
//
//	ops[0]            how many distinct step delays, 1 … lanes+2
//	then (op, arg) pairs, by op%4:
//	0  a process wake-up arg ns ahead (Advance, Spawn, makeRunnable: arg 0)
//	1  a callback arg%4 ns ahead, so equal times are the common case
//	2  a Poll step's wake-up, its delay the arg-th of the distinct ones
//	3  the next entry out (arg%3 of them, plus one)
//
// and at the end everything left comes out.
func checkPendingOrder(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	stepDelays := []Time{150, 120, 300, 500, 0, 7}[:1+int(ops[0])%(lanes+2)]
	var (
		q    pending
		ref  refSet
		now  Time
		n    uint32
		outs int
	)
	out := func() bool {
		got, ok := q.pop()
		want, wantOK := ref.pop()
		if got != want || ok != wantOK {
			t.Fatalf("entry %d out: pending gave %+v %v, the reference %+v %v", outs, got, ok, want, wantOK)
		}
		if ok {
			if got.at < now {
				t.Fatalf("entry %d out: time went backwards, %d after %d", outs, got.at, now)
			}
			now = got.at
			outs++
		}
		return ok
	}
	for i := 1; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%4, ops[i+1]
		n++
		tie := n * 0x9E3779B1 // distinct, and unordered
		switch op {
		case 0:
			e := event{at: now + Time(arg), filed: now, tie: tie, who: int32(arg % 5)}
			q.push(e)
			ref = append(ref, e)
		case 1:
			e := event{at: now + Time(arg%4), filed: now, tie: tie, who: ^int32(arg)}
			q.push(e)
			ref = append(ref, e)
		case 2:
			d := stepDelays[int(arg)%len(stepDelays)]
			e := event{at: now + d, filed: now, tie: tie, who: int32(arg % 7)}
			q.pushStep(d, e)
			ref = append(ref, e)
		case 3:
			for n := 0; n <= int(arg%3) && out(); n++ {
			}
		}
	}
	for out() {
	}
	if len(q.heap) != 0 {
		t.Fatalf("nothing left to come out and %d entries in the heap", len(q.heap))
	}
	for i := range q.lanes {
		if q.lanes[i].n != 0 {
			t.Fatalf("nothing left to come out and %d entries in lane %d", q.lanes[i].n, i)
		}
	}
}

// TestPendingMatchesReference: the lanes change what finding the minimum
// costs and never which entry it is. Seeded random programs — from one
// step delay, where every wake-up shares a lane, to two more than there
// are lanes, where the last overflow into the heap; bursts in and bursts
// out, so rings wrap, grow, empty and change their delay — leave pending
// in the order a linear search gives.
func TestPendingMatchesReference(t *testing.T) {
	for nd := 0; nd < lanes+2; nd++ {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(nd)))
			ops := make([]byte, 1+2*(50+rng.Intn(800)))
			ops[0] = byte(nd)
			// Each program leans its own way: mostly steps, mostly pops, …
			var weight [4]int
			for i := range weight {
				weight[i] = 1 + rng.Intn(6)
			}
			total := weight[0] + weight[1] + weight[2] + weight[3]
			for i := 1; i+1 < len(ops); i += 2 {
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
}

// TestLaneOverflowsIntoHeap pins what the random programs rely on: with
// every lane holding another delay a step's wake-up goes to the heap, and
// a lane that has emptied takes the next delay that asks.
func TestLaneOverflowsIntoHeap(t *testing.T) {
	var q pending
	for i := 0; i < lanes; i++ {
		d := Time(10 * (i + 1))
		q.pushStep(d, event{at: d, tie: uint32(i + 1)})
	}
	q.pushStep(5, event{at: 5, tie: lanes + 1})
	if len(q.heap) != 1 {
		t.Fatalf("a delay beyond the %d lanes: %d entries in the heap, want 1", lanes, len(q.heap))
	}
	if e, _ := q.pop(); e.at != 5 {
		t.Fatalf("first out at %d, want the heap's entry at 5", e.at)
	}
	if e, _ := q.pop(); e.at != 10 { // lane 0 is vacant now
		t.Fatalf("second out at %d, want 10", e.at)
	}
	q.pushStep(7, event{at: 17, filed: 10, tie: lanes + 2})
	if len(q.heap) != 0 || q.lanes[0].d != 7 || q.lanes[0].n != 1 {
		t.Fatalf("a new delay with lane 0 vacant: heap %d, lane 0 %+v", len(q.heap), q.lanes[0])
	}
}

// FuzzPendingOrder searches checkPendingOrder's programs for one that
// leaves pending in another order than the reference.
func FuzzPendingOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 2, 0, 2, 0, 2, 0, 3, 2, 2, 0, 3, 0})                                                 // one lane, wake-ups re-filed as they leave
	f.Add([]byte{5, 2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 3, 2, 2, 5, 2, 4, 3, 2})                         // six delays over four lanes
	f.Add([]byte{3, 0, 0, 1, 0, 2, 4, 0, 0, 1, 4, 2, 4, 3, 2, 3, 2})                                     // everything at one instant: the Ties decide
	f.Add([]byte{2, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 3, 1, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 3, 2}) // a ring grows while wrapped
	f.Fuzz(checkPendingOrder)
}
