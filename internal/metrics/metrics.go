// Package metrics is the engine's telemetry layer: a registry of named
// counters and log2-bucketed histograms, plus a per-GVT-round
// sampler (Recorder) that records virtual-time-keyed time series — worker
// LVTs, efficiency, rollback pressure, queue and mailbox depths, MPI
// in-flight traffic, barrier wait — into bounded buffers that allocate
// nothing once full. The collected data exports as a single
// machine-readable JSON run report (see report.go).
//
// Everything here runs inside the internal/sim kernel, where
// exactly one simulated process executes at a time, so the types need no
// host-level locking; they are not safe for host-parallel use.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing named count.
type Counter struct {
	name string
	v    int64
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be >= 0 to keep the counter monotone).
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// histBuckets is the number of log2 histogram buckets: bucket i counts
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0
// counts zeros; the last bucket absorbs everything larger.
const histBuckets = 32

// Histogram accumulates a distribution of non-negative integer values
// (rollback depths, queue lengths, message sizes) in log2 buckets.
// Observe is allocation-free.
type Histogram struct {
	name    string
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from
// the bucket boundaries: the smallest bucket upper edge below which at
// least q of the observations fall.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i == 0 {
				return 0
			}
			edge := int64(1) << i // exclusive upper edge 2^i
			if edge-1 > h.max {
				return h.max
			}
			return edge - 1
		}
	}
	return h.max
}

// HistogramBucket is one exported histogram bucket.
type HistogramBucket struct {
	Count int64 `json:"count"`
	// Le is the inclusive upper bound of the bucket (values <= Le).
	Le int64 `json:"le"`
}

// HistogramSummary is the exported shape of a histogram.
type HistogramSummary struct {
	Buckets []HistogramBucket `json:"buckets"`
	Count   int64             `json:"count"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	Min     int64             `json:"min"`
	Name    string            `json:"name"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Sum     int64             `json:"sum"`
}

// Summary exports the histogram, dropping empty trailing buckets.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Mean: h.Mean(), P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		le := h.max
		if i > 0 && (int64(1)<<i)-1 < le {
			le = (int64(1) << i) - 1
		}
		if i == 0 {
			le = 0
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: le, Count: c})
	}
	return s
}

// Registry holds named metrics. Lookups are get-or-create so
// instrumentation sites can resolve their instruments once at setup and
// hold the pointer (the allocation-free hot path).
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// CounterValues returns all counters as a sorted name->value list.
func (r *Registry) CounterValues() []NamedValue {
	out := make([]NamedValue, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, NamedValue{Name: name, Value: float64(c.v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HistogramSummaries returns all histograms, sorted by name.
func (r *Registry) HistogramSummaries() []HistogramSummary {
	out := make([]HistogramSummary, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h.Summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedValue is one exported counter reading.
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func (v NamedValue) String() string { return fmt.Sprintf("%s=%g", v.Name, v.Value) }
