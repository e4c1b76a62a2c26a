package sim

// lanes is how many constant delays have a FIFO of their own. An idle
// thread's Poll steps return four (a mailbox lock hold, the MPI lock hold,
// the MPI poll, IdlePoll); a delay that finds every lane taken goes to
// the heap, which costs time and never order.
const lanes = 4

// lane holds the Poll wake-ups filed with one delay. The clock never runs
// backwards and seq only grows, so of two wake-ups filed at now+d the one
// filed first has the smaller (at, seq): the ring is sorted by being
// appended to, and its head is its minimum.
type lane struct {
	d     Time    // the delay of every entry held; any, while there is none
	ring  []event // len is zero or a power of two
	front int     // index of the oldest entry
	n     int     // entries held
}

func (l *lane) append(e event) {
	if l.n == len(l.ring) {
		grown := make([]event, max(8, 2*len(l.ring)))
		k := copy(grown, l.ring[l.front:])
		copy(grown[k:], l.ring[:l.front])
		l.ring, l.front = grown, 0
	}
	l.ring[(l.front+l.n)&(len(l.ring)-1)] = e
	l.n++
}

// head is the oldest entry of a lane that holds one.
func (l *lane) head() *event { return &l.ring[l.front] }

// pending is the kernel's pending-event set: a binary heap, and beside it
// the lanes that spare a Poll step's wake-up the heap's sifts. Whichever
// holds an entry, entries leave in (at, seq) order.
type pending struct {
	heap  eventHeap
	lanes [lanes]lane
	// first is the lane with the smallest head (nil: all are empty), kept so
	// that an entry leaving the heap costs one comparison with the lanes.
	first *lane
}

func (q *pending) push(e event) { q.heap.push(e) }

// pushStep files a Poll wake-up of proc at now+d: in d's lane, in a vacant
// lane which then becomes d's, or failing both in the heap.
func (q *pending) pushStep(now, d Time, seq uint64, proc int32) {
	e := event{at: now + d, seq: seq, proc: proc}
	var to *lane
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.d == d {
			to = l
			break
		}
		if l.n == 0 && to == nil {
			to = l
		}
	}
	if to == nil {
		q.heap.push(e)
		return
	}
	to.d = d
	to.append(e)
	if to.n == 1 && (q.first == nil || e.before(q.first.head())) {
		q.first = to
	}
}

// pop removes and returns the entry with the smallest (at, seq); ok is
// false when nothing is pending.
func (q *pending) pop() (e event, ok bool) {
	l := q.first
	if len(q.heap) > 0 && (l == nil || q.heap[0].before(l.head())) {
		return q.heap.pop(), true
	}
	if l == nil {
		return e, false
	}
	e = *l.head()
	l.front = (l.front + 1) & (len(l.ring) - 1)
	l.n--
	q.first = nil
	for i := range q.lanes {
		if c := &q.lanes[i]; c.n > 0 && (q.first == nil || c.head().before(q.first.head())) {
			q.first = c
		}
	}
	return e, true
}
