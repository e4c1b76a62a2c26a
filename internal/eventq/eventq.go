// Package eventq provides pending-event-set implementations for the Time
// Warp engine: the data structure holding each worker's unprocessed events
// ordered by receive stamp. Two implementations are provided — a binary
// min-heap (ROSS's default splay tree stand-in; O(log n), robust) and a
// calendar queue (amortized O(1) under stationary loads) — behind a common
// interface, so the engine and the ablation benchmarks can swap them.
package eventq

import (
	"sort"

	"repro/internal/event"
	"repro/internal/vtime"
)

// Queue is a pending event set ordered by event stamp.
type Queue interface {
	// Push inserts an event.
	Push(*event.Event)
	// Pop removes and returns the minimum-stamp event, or nil if empty.
	Pop() *event.Event
	// Peek returns the minimum-stamp event without removing it, or nil.
	Peek() *event.Event
	// Len returns the number of queued events.
	Len() int
	// RemoveMatching removes the first event matching (annihilating) anti
	// and returns it, or nil if no match is queued. Used for anti-message
	// annihilation against unprocessed positives (and vice versa).
	RemoveMatching(anti *event.Event) *event.Event
	// RemoveFor removes every event destined to lp and returns them in
	// stamp order. Used when an LP migrates: its pending events travel
	// with it.
	RemoveFor(lp event.LPID) []*event.Event
}

// New returns a queue of the named kind ("heap" or "calendar").
func New(kind string) Queue { return NewSized(kind, 0) }

// NewSized is New with room for n events: a heap holds n before its first
// growth, and a calendar, which sizes its buckets itself, ignores n.
func NewSized(kind string, n int) Queue {
	switch kind {
	case "", "heap":
		return &Heap{ev: make([]*event.Event, 0, n)}
	case "calendar":
		return NewCalendar()
	default:
		panic("eventq: unknown queue kind " + kind)
	}
}

// Heap is a binary min-heap pending event set.
type Heap struct {
	ev []*event.Event
}

// NewHeap returns an empty heap queue.
func NewHeap() *Heap { return &Heap{} }

// Len returns the number of queued events.
func (h *Heap) Len() int { return len(h.ev) }

func (h *Heap) less(i, j int) bool { return h.ev[i].Stamp.Before(h.ev[j].Stamp) }

// Push inserts e.
func (h *Heap) Push(e *event.Event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// Peek returns the minimum event or nil.
func (h *Heap) Peek() *event.Event {
	if len(h.ev) == 0 {
		return nil
	}
	return h.ev[0]
}

// Pop removes and returns the minimum event or nil.
func (h *Heap) Pop() *event.Event {
	if len(h.ev) == 0 {
		return nil
	}
	return h.removeAt(0)
}

func (h *Heap) removeAt(i int) *event.Event {
	removed := h.ev[i]
	n := len(h.ev) - 1
	h.ev[i] = h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if i < n {
		h.fixDown(i)
		h.fixUp(i)
	}
	return removed
}

func (h *Heap) fixUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *Heap) fixDown(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
}

// RemoveMatching removes and returns the first queued event annihilating
// anti (same MatchID and Src, opposite sign), or nil.
func (h *Heap) RemoveMatching(anti *event.Event) *event.Event {
	for i, e := range h.ev {
		if e.Matches(anti) && e.Anti != anti.Anti {
			return h.removeAt(i)
		}
	}
	return nil
}

// RemoveFor removes every event destined to lp, returned in stamp order.
func (h *Heap) RemoveFor(lp event.LPID) []*event.Event {
	var taken []*event.Event
	keep := h.ev[:0]
	for _, e := range h.ev {
		if e.Dst == lp {
			taken = append(taken, e)
		} else {
			keep = append(keep, e)
		}
	}
	if len(taken) == 0 {
		return nil
	}
	for i := len(keep); i < len(h.ev); i++ {
		h.ev[i] = nil
	}
	h.ev = keep
	// Re-heapify the survivors bottom-up.
	for i := len(h.ev)/2 - 1; i >= 0; i-- {
		h.fixDown(i)
	}
	sortByStamp(taken)
	return taken
}

// sortByStamp orders events by the total stamp order.
func sortByStamp(evs []*event.Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Stamp.Before(evs[j].Stamp) })
}

// MinStamp returns the stamp of the minimum event, or vtime.InfStamp if
// the queue is empty. (Convenience for GVT local-minimum computation.)
func MinStamp(q Queue) vtime.Stamp {
	if e := q.Peek(); e != nil {
		return e.Stamp
	}
	return vtime.InfStamp
}
