package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one repetition or one job share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root span
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate: that many short calls (model
	// callbacks) folded into one span whose length is their summed time,
	// because a span per event would cost more than the event.
	Calls int64 `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 when untraced). An empty
// trace is inherited from the parent span.
func (t *tracer) begin(name, trace string, parent int64) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	t.next++
	id := t.next
	if trace == "" && parent > 0 && parent < id {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end // ids are 1-based slice positions
	t.mu.Unlock()
}

// timed runs fn inside a span (none when untraced) and returns the span
// id and how long fn took.
func (t *tracer) timed(name, trace string, parent int64, fn func()) (int64, time.Duration) {
	id := t.begin(name, trace, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return id, d
}

// aggregate records calls short calls totalling total ns as one child
// of parent, placed offset ns after the parent's start; it returns the
// offset for the next aggregate so siblings sit back to back, not
// overlapping.
func (t *tracer) aggregate(name string, parent, offset, total, calls int64) int64 {
	if t == nil || calls == 0 {
		return offset
	}
	t.mu.Lock()
	p := t.spans[parent-1]
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Trace: p.Trace, Name: name,
		Start: p.Start + offset, End: p.Start + offset + total, Calls: calls})
	t.mu.Unlock()
	return offset + total
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for id, p := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = p.dur() - covered
	}
	return self
}

// traceDoc is the layout of trace.json.
type traceDoc struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfNS is the summed self time per span name: where the time of
	// the traced repetitions went, layer by layer.
	SelfNS map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

// writeTrace writes every span recorded to path.
func writeTrace(path, workload string, seed uint64, spans []span) error {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(traceDoc{Schema: "cagvt.benchmark-trace/1", Workload: workload,
		Seed: seed, SelfNS: byName, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
