package sim

// lanes is how many constant delays have a FIFO of their own. An idle
// thread's Poll steps return four (a mailbox lock hold, the MPI lock hold,
// the MPI poll, IdlePoll); a delay that finds every lane taken goes to
// the heap, which costs time and never order.
const lanes = 4

// lane holds the Poll wake-ups filed with one delay, in key order. The
// clock never runs backwards, so a wake-up filed at now+d follows every one
// filed before now: it goes in among those filed at now, which the ring
// ends with, by its Tie. The head is the minimum.
type lane struct {
	d     Time    // the delay of every entry held; any, while there is none
	ring  []event // len is zero or a power of two
	front int     // index of the head
	n     int     // entries held
}

// insert puts e in its place, and reports whether that is at the head.
func (l *lane) insert(e event) bool {
	if l.n == len(l.ring) {
		grown := make([]event, max(8, 2*len(l.ring)))
		k := copy(grown, l.ring[l.front:])
		copy(grown[k:], l.ring[:l.front])
		l.ring, l.front = grown, 0
	}
	mask, i := len(l.ring)-1, l.n
	for ; i > 0; i-- {
		prev := &l.ring[(l.front+i-1)&mask]
		if !e.before(prev) {
			break
		}
		l.ring[(l.front+i)&mask] = *prev
	}
	l.ring[(l.front+i)&mask] = e
	l.n++
	return i == 0
}

// head is the least entry of a lane that holds one.
func (l *lane) head() *event { return &l.ring[l.front] }

// pending is the kernel's pending-event set: a binary heap, and beside it
// the lanes that spare a Poll step's wake-up the heap's sifts. Whichever
// holds an entry, entries leave in key order.
type pending struct {
	heap  eventHeap
	lanes [lanes]lane
	// first is the lane with the smallest head (nil: all are empty), kept so
	// that an entry leaving the heap costs one comparison with the lanes.
	first *lane
}

func (q *pending) push(e event) { q.heap.push(e) }

// pushStep files e, a Poll wake-up due d from now: in d's lane, in a vacant
// lane which then becomes d's, or failing both in the heap.
func (q *pending) pushStep(d Time, e event) {
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
	if to.insert(e) && (q.first == nil || e.before(q.first.head())) {
		q.first = to
	}
}

// pop removes and returns the entry with the smallest key; ok is
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
