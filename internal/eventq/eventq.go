// Package eventq is the pending event set of the engines: the binary
// min-heap holding each worker's unprocessed events ordered by receive
// stamp, the stand-in for the priority queue of a ROSS PE. Every run
// depends on the order events leave it, never on how they are held.
package eventq

import (
	"sort"

	"repro/internal/event"
	"repro/internal/vtime"
)

// Heap is a binary min-heap pending event set. The zero value is an
// empty heap.
type Heap struct {
	ev []*event.Event
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// HeapOn returns an empty heap that fills buf's capacity before it grows.
func HeapOn(buf []*event.Event) Heap { return Heap{ev: buf[:0]} }

// Len returns the number of queued events.
func (h *Heap) Len() int { return len(h.ev) }

// Cap returns how many events the heap holds before it grows.
func (h *Heap) Cap() int { return cap(h.ev) }

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
// the heap is empty (a worker's local minimum for GVT).
func (h *Heap) MinStamp() vtime.Stamp {
	if e := h.Peek(); e != nil {
		return e.Stamp
	}
	return vtime.InfStamp
}
