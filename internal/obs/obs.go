// Package obs is the service-side observability layer: a dependency-free,
// concurrency-safe registry of counters, gauges and histograms rendered
// in Prometheus text exposition format, plus structured-logging helpers
// and build identification.
//
// It deliberately complements — not replaces — internal/metrics. The
// engine's telemetry runs inside the internal/sim kernel where exactly
// one simulated process executes at a time, so internal/metrics needs no
// host locking and must allocate nothing on the hot path. This package
// sits on the other side of that boundary: HTTP handlers, worker pools
// and scrape loops hammer it from many goroutines at once, so every
// instrument here is atomic and every read is a consistent-enough
// snapshot for monitoring (individual values are atomically read; a
// scrape is not a global transaction, the same contract Prometheus
// clients offer).
//
// Instruments are get-or-create by name, like internal/metrics.Registry:
// resolve once at setup, hold the pointer, update lock-free. Labeled
// families (CounterVec/GaugeVec) cache their series per label-value
// tuple. Func-backed instruments (CounterFunc/GaugeFunc) read an
// existing source of truth at scrape time, so values the service already
// tracks — queue depth, cache bytes — are exposed without
// double-bookkeeping. OnScrape hooks run before each render for
// snapshot-style gauges that are cheaper to compute in bulk.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Counter is a monotonically increasing value, safe for concurrent use.
type Counter struct {
	v      atomic.Int64
	labels string // pre-rendered `{k="v",...}` suffix ("" when unlabeled)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d; d must be >= 0 to keep the counter monotone.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can move both directions, safe for concurrent use.
type Gauge struct {
	bits   atomic.Uint64 // float64 bits
	labels string
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates float64 observations into explicit upper-bound
// buckets (Prometheus `le` semantics: bucket i counts v <= bounds[i],
// plus an implicit +Inf overflow bucket). Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64  // float64 bits
	labels string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets is the default histogram bucketing: the conventional
// Prometheus latency spread, in seconds.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponential bucket bounds starting at start and
// growing by factor; it panics on a non-positive start, a factor <= 1,
// or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// series is one rendered time series: a concrete instrument or a
// func-backed reading.
type series struct {
	labels  string // pre-rendered suffix, also the sort key within a family
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one named metric with its HELP/TYPE header and series set.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string // label names (nil for unlabeled)

	mu     sync.Mutex
	series map[string]*series // keyed by rendered label suffix
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers a hook invoked before every render, for gauges that
// are cheapest to refresh in bulk from a snapshot. Hooks run in
// registration order and must not themselves scrape the registry.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// register resolves (or creates) the family for name, enforcing that a
// name keeps one type and label scheme for the registry's lifetime.
func (r *Registry) register(name, help string, typ metricType, labels []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		series: make(map[string]*series)}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelSuffix renders a `{k="v",...}` suffix for a family's label names
// and the given values.
func labelSuffix(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// get returns the series for the given label suffix, creating it with
// mk when absent.
func (f *family) get(suffix string, mk func() *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[suffix]; ok {
		return s
	}
	s := mk()
	s.labels = suffix
	f.series[suffix] = s
	return s
}

// Counter returns the unlabeled counter with the given name, creating
// it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil)
	return f.get("", func() *series { return &series{counter: &Counter{}} }).counter
}

// Gauge returns the unlabeled gauge with the given name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil)
	return f.get("", func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// Histogram returns the unlabeled histogram with the given name,
// creating it with the given strictly-increasing bucket upper bounds
// (+Inf is implicit; pass nil for DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := r.register(name, help, typeHistogram, nil)
	bounds := append([]float64(nil), buckets...)
	return f.get("", func() *series {
		return &series{hist: &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}}
	}).hist
}

// CounterFunc exposes fn's reading as a counter; fn is called at scrape
// time and must be monotone non-decreasing and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, nil)
	f.get("", func() *series { return &series{fn: fn} })
}

// GaugeFunc exposes fn's reading as a gauge; fn is called at scrape time
// and must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil)
	f.get("", func() *series { return &series{fn: fn} })
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name,
// creating it if needed.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// With returns the counter for the given label values (one per label
// name, in registration order), creating it if needed.
func (v *CounterVec) With(values ...string) *Counter {
	suffix := labelSuffix(v.f.labels, values)
	return v.f.get(suffix, func() *series { return &series{counter: &Counter{}} }).counter
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name,
// creating it if needed.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels)}
}

// With returns the gauge for the given label values, creating it if
// needed.
func (v *GaugeVec) With(values ...string) *Gauge {
	suffix := labelSuffix(v.f.labels, values)
	return v.f.get(suffix, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
