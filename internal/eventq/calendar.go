package eventq

import (
	"sort"

	"repro/internal/event"
)

// The calendar queue, the Queue interface and New serve only the
// benchmark module's eventq probe (benchmark/probes.go), which times the
// hold model on both structures. No engine or spec can select the
// calendar: delete this file once that probe is gone.

// Queue is a pending event set ordered by event stamp: Heap or Calendar.
type Queue interface {
	Push(*event.Event)
	Pop() *event.Event
	Peek() *event.Event
	Len() int
	RemoveMatching(anti *event.Event) *event.Event
	RemoveFor(lp event.LPID) []*event.Event
}

// New returns an empty queue of the named kind ("heap" or "calendar").
func New(kind string) Queue {
	switch kind {
	case "", "heap":
		return NewHeap()
	case "calendar":
		return NewCalendar()
	default:
		panic("eventq: unknown queue kind " + kind)
	}
}

// Calendar is a calendar-queue pending event set (Brown 1988): a ring of
// time buckets, each one "day" wide, sorted lazily within a bucket. Under
// stationary event-time distributions enqueue/dequeue are amortized O(1).
// It resizes (doubling/halving the bucket count and rescaling the day
// width) when the population drifts outside the configured band.
type Calendar struct {
	buckets   [][]*event.Event
	width     float64 // virtual-time width of one bucket
	bucketIdx int     // current dequeue bucket
	yearStart float64 // start time of the current year's bucketIdx
	n         int
	lastPrio  float64 // monotone floor for dequeues (stamps can repeat)
}

const (
	calInitBuckets = 8
	calMinWidth    = 1e-9
)

// NewCalendar returns an empty calendar queue.
func NewCalendar() *Calendar {
	c := &Calendar{}
	c.initialize(calInitBuckets, 1.0, 0)
	return c
}

func (c *Calendar) initialize(nbuckets int, width, start float64) {
	c.buckets = make([][]*event.Event, nbuckets)
	c.width = width
	c.bucketIdx = int(start/width) % nbuckets
	if c.bucketIdx < 0 {
		c.bucketIdx = 0
	}
	c.yearStart = float64(int(start/width)) * width
	c.lastPrio = start
}

// Len returns the number of queued events.
func (c *Calendar) Len() int { return c.n }

func (c *Calendar) bucketFor(t float64) int {
	i := int(t / c.width)
	i %= len(c.buckets)
	if i < 0 {
		i += len(c.buckets)
	}
	return i
}

// Push inserts e.
func (c *Calendar) Push(e *event.Event) {
	t := e.Stamp.T
	if t < c.lastPrio {
		// Event in the "past" relative to the dequeue cursor (a straggler
		// being re-enqueued): rewind the cursor so dequeues see it.
		c.lastPrio = t
		c.bucketIdx = c.bucketFor(t)
		c.yearStart = float64(int(t/c.width)) * c.width
	}
	i := c.bucketFor(t)
	c.buckets[i] = append(c.buckets[i], e)
	c.n++
	if c.n > 2*len(c.buckets) && len(c.buckets) < 1<<20 {
		c.resize(2 * len(c.buckets))
	}
}

// Peek returns the minimum event without removing it, or nil.
func (c *Calendar) Peek() *event.Event {
	if c.n == 0 {
		return nil
	}
	i, pos := c.findMin()
	return c.buckets[i][pos]
}

// Pop removes and returns the minimum event, or nil.
func (c *Calendar) Pop() *event.Event {
	if c.n == 0 {
		return nil
	}
	i, pos := c.findMin()
	b := c.buckets[i]
	e := b[pos]
	b[pos] = b[len(b)-1]
	b[len(b)-1] = nil
	c.buckets[i] = b[:len(b)-1]
	c.n--
	c.lastPrio = e.Stamp.T
	// Advance the dequeue cursor to the popped event's year so subsequent
	// scans start near the action instead of at a stale year.
	c.bucketIdx = c.bucketFor(e.Stamp.T)
	c.yearStart = float64(int(e.Stamp.T/c.width)) * c.width
	if c.n > calInitBuckets && c.n < len(c.buckets)/2 {
		c.resize(len(c.buckets) / 2)
	}
	return e
}

// findMin locates the bucket and position of the minimum event. It scans
// the calendar year starting at the dequeue cursor; if the year is empty it
// falls back to a direct scan (rare, only when events are far apart).
func (c *Calendar) findMin() (bucket, pos int) {
	nb := len(c.buckets)
	idx := c.bucketIdx
	year := c.yearStart
	for scanned := 0; scanned < nb; scanned++ {
		i := (idx + scanned) % nb
		limit := year + float64(scanned+1)*c.width
		if p, ok := minInBucketBelow(c.buckets[i], limit); ok {
			return i, p
		}
	}
	// Direct search across all buckets.
	best, bestPos := -1, -1
	for i, b := range c.buckets {
		for p, e := range b {
			if best == -1 || e.Stamp.Before(c.buckets[best][bestPos].Stamp) {
				best, bestPos = i, p
			}
		}
	}
	return best, bestPos
}

// minInBucketBelow returns the index of the minimum-stamp event in b whose
// time is < limit, if any.
func minInBucketBelow(b []*event.Event, limit float64) (int, bool) {
	best := -1
	for i, e := range b {
		if e.Stamp.T >= limit {
			continue
		}
		if best == -1 || e.Stamp.Before(b[best].Stamp) {
			best = i
		}
	}
	return best, best != -1
}

// RemoveMatching removes the first event annihilating anti, or nil.
func (c *Calendar) RemoveMatching(anti *event.Event) *event.Event {
	i := c.bucketFor(anti.Stamp.T)
	b := c.buckets[i]
	for p, e := range b {
		if e.Matches(anti) && e.Anti != anti.Anti {
			b[p] = b[len(b)-1]
			b[len(b)-1] = nil
			c.buckets[i] = b[:len(b)-1]
			c.n--
			return e
		}
	}
	return nil
}

// RemoveFor removes every event destined to lp, returned in stamp order.
// Unlike RemoveMatching this must scan the whole calendar: a migrating
// LP's pending events are spread across many buckets.
func (c *Calendar) RemoveFor(lp event.LPID) []*event.Event {
	var taken []*event.Event
	for i, b := range c.buckets {
		keep := b[:0]
		for _, e := range b {
			if e.Dst == lp {
				taken = append(taken, e)
			} else {
				keep = append(keep, e)
			}
		}
		for p := len(keep); p < len(b); p++ {
			b[p] = nil
		}
		c.buckets[i] = keep
	}
	c.n -= len(taken)
	sortByStamp(taken)
	return taken
}

// resize rebuilds the calendar with nbuckets buckets and a day width set
// from a sample of inter-event gaps.
func (c *Calendar) resize(nbuckets int) {
	all := make([]*event.Event, 0, c.n)
	for _, b := range c.buckets {
		all = append(all, b...)
	}
	width := c.sampleWidth(all)
	start := c.lastPrio
	c.initialize(nbuckets, width, start)
	c.n = 0
	for _, e := range all {
		c.Push(e)
	}
}

// sampleWidth estimates a bucket width: ~3x the average gap between
// consecutive event times in a sample, the classic calendar-queue rule.
func (c *Calendar) sampleWidth(all []*event.Event) float64 {
	if len(all) < 2 {
		return 1.0
	}
	sample := make([]float64, 0, 32)
	stride := len(all)/32 + 1
	for i := 0; i < len(all); i += stride {
		sample = append(sample, all[i].Stamp.T)
	}
	sort.Float64s(sample)
	gaps := 0.0
	count := 0
	for i := 1; i < len(sample); i++ {
		gaps += sample[i] - sample[i-1]
		count++
	}
	if count == 0 || gaps <= 0 {
		return 1.0
	}
	w := 3.0 * gaps / float64(count)
	if w < calMinWidth {
		w = calMinWidth
	}
	return w
}
