// Fault injection: a deterministic model of the failures a real 10 GbE
// cluster exhibits — packet loss, duplication, delay jitter, timed link
// degradation/partition windows, and straggler nodes — so the GVT
// algorithms can be exercised under the conditions "Time Warp on the Go"
// style deployments face instead of a perfect wire.
//
// All randomness comes from one dedicated xoshiro stream seeded
// independently of the model streams, so enabling faults never perturbs
// model-level random draws, and a (seed, plan) pair replays bit-identically.
// With no plan installed the fabric behaves exactly as before: no RNG
// draws, no extra bookkeeping, byte-identical runs.
package fabric

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// FaultKind labels one injected fault occurrence.
type FaultKind uint8

const (
	// FaultDrop is a packet silently lost on the wire.
	FaultDrop FaultKind = iota
	// FaultDuplicate is a packet delivered twice (e.g. a spurious TCP/NIC
	// retransmission).
	FaultDuplicate
	// FaultJitter is a packet delayed beyond its nominal transfer time.
	FaultJitter
	// FaultWindowDrop is a packet lost inside a degradation/partition window.
	FaultWindowDrop
)

// String returns the fault kind name.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultJitter:
		return "jitter"
	case FaultWindowDrop:
		return "window-drop"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent describes one injected fault, delivered to Fabric.FaultHook
// as it happens (for tracing and metrics).
type FaultEvent struct {
	Kind     FaultKind
	Src, Dst int
	At       sim.Time
	// Delay is the extra latency added (jitter and window degradation only).
	Delay sim.Time
}

// LinkFaults is the per-link steady-state fault profile.
type LinkFaults struct {
	// Drop is the probability a packet is silently lost.
	Drop float64
	// Duplicate is the probability a packet is delivered twice.
	Duplicate float64
	// Jitter is the maximum extra delivery delay; each packet draws a
	// uniform delay in [0, Jitter). Zero disables jitter.
	Jitter sim.Time
}

func (l LinkFaults) validate() error {
	if l.Drop < 0 || l.Drop > 1 || l.Duplicate < 0 || l.Duplicate > 1 {
		return fmt.Errorf("fabric: fault probabilities must be in [0,1], got drop=%v dup=%v", l.Drop, l.Duplicate)
	}
	if l.Drop == 1 {
		return fmt.Errorf("fabric: steady-state drop probability 1 makes the link permanently dead; use a partition Window instead")
	}
	if l.Jitter < 0 {
		return fmt.Errorf("fabric: negative jitter %v", l.Jitter)
	}
	return nil
}

// LinkID identifies a directed link.
type LinkID struct{ Src, Dst int }

// Window is a periodic link-degradation window: during
// [k*Every, k*Every+Open) for every integer k >= 0, matching packets are
// dropped with probability Drop and surviving ones are delayed by
// ExtraLatency. A Window with Drop=1 is a periodic partition.
type Window struct {
	// Src and Dst select the affected links; -1 matches any endpoint.
	Src, Dst int
	// Every is the period; Open is how long the window stays open each
	// period. Open must be < Every.
	Every, Open sim.Time
	// Drop is the loss probability while the window is open.
	Drop float64
	// ExtraLatency is added to surviving packets while the window is open.
	ExtraLatency sim.Time
}

func (w Window) validate() error {
	if w.Every <= 0 || w.Open <= 0 || w.Open >= w.Every {
		return fmt.Errorf("fabric: window needs 0 < Open < Every, got open=%v every=%v", w.Open, w.Every)
	}
	if w.Drop < 0 || w.Drop > 1 {
		return fmt.Errorf("fabric: window drop must be in [0,1], got %v", w.Drop)
	}
	if w.ExtraLatency < 0 {
		return fmt.Errorf("fabric: negative window latency %v", w.ExtraLatency)
	}
	return nil
}

// matches reports whether the window applies to the (src, dst) link.
func (w Window) matches(src, dst int) bool {
	return (w.Src < 0 || w.Src == src) && (w.Dst < 0 || w.Dst == dst)
}

// open reports whether the window is open at virtual time t.
func (w Window) open(t sim.Time) bool {
	return t%w.Every < w.Open
}

// FaultPlan is a complete deterministic fault schedule for a run.
// A nil plan means a perfect fabric.
type FaultPlan struct {
	// Link is the default steady-state profile applied to every link.
	Link LinkFaults
	// Links overrides the default for specific directed links.
	Links map[LinkID]LinkFaults
	// Windows are periodic degradation/partition windows.
	Windows []Window
	// Straggler maps an endpoint (node) id to a core slowdown factor
	// (>= 1). The fabric itself ignores it; the engine applies it through
	// the node's CPU cost model.
	Straggler map[int]float64
}

// Validate checks the plan against a fabric of n endpoints.
func (p *FaultPlan) Validate(n int) error {
	if err := p.Link.validate(); err != nil {
		return err
	}
	for id, lf := range p.Links {
		if id.Src < 0 || id.Src >= n || id.Dst < 0 || id.Dst >= n {
			return fmt.Errorf("fabric: fault link %v outside [0,%d)", id, n)
		}
		if err := lf.validate(); err != nil {
			return err
		}
	}
	for _, w := range p.Windows {
		if err := w.validate(); err != nil {
			return err
		}
		if w.Src >= n || w.Dst >= n {
			return fmt.Errorf("fabric: window endpoints (%d,%d) outside [0,%d)", w.Src, w.Dst, n)
		}
	}
	for node, f := range p.Straggler {
		if node < 0 || node >= n {
			return fmt.Errorf("fabric: straggler node %d outside [0,%d)", node, n)
		}
		if f < 1 {
			return fmt.Errorf("fabric: straggler factor %v for node %d must be >= 1", f, node)
		}
	}
	return nil
}

// linkFor returns the effective profile for a directed link.
func (p *FaultPlan) linkFor(src, dst int) LinkFaults {
	if lf, ok := p.Links[LinkID{src, dst}]; ok {
		return lf
	}
	return p.Link
}

// ScenarioNames lists the built-in fault scenarios, in severity order.
func ScenarioNames() []string {
	return []string{"drop", "duplicate", "jitter", "partition", "straggler", "chaos"}
}

// Scenario returns a built-in fault plan by name for a fabric of n
// endpoints. The built-ins are sized against the default Ethernet
// parameters (30µs latency): jitter an order of magnitude above the wire
// latency, partition windows long enough to stall several retransmit
// timeouts, straggler factors in the range real heterogeneous KNL nodes
// showed.
func Scenario(name string, n int) (*FaultPlan, error) {
	last := n - 1
	switch name {
	case "", "none":
		return nil, nil
	case "drop":
		return &FaultPlan{Link: LinkFaults{Drop: 0.15}}, nil
	case "duplicate":
		return &FaultPlan{Link: LinkFaults{Duplicate: 0.15}}, nil
	case "jitter":
		return &FaultPlan{Link: LinkFaults{Jitter: 300 * sim.Microsecond}}, nil
	case "partition":
		// Node 0 (the GVT ring master) periodically unreachable in both
		// directions: the worst placement for control-message liveness.
		return &FaultPlan{Windows: []Window{
			{Src: -1, Dst: 0, Every: sim.Millisecond, Open: 150 * sim.Microsecond, Drop: 1},
			{Src: 0, Dst: -1, Every: sim.Millisecond, Open: 150 * sim.Microsecond, Drop: 1},
		}}, nil
	case "straggler":
		return &FaultPlan{Straggler: map[int]float64{last: 4}}, nil
	case "chaos":
		return &FaultPlan{
			Link: LinkFaults{Drop: 0.08, Duplicate: 0.08, Jitter: 150 * sim.Microsecond},
			Windows: []Window{
				{Src: -1, Dst: 0, Every: 2 * sim.Millisecond, Open: 100 * sim.Microsecond, Drop: 1},
			},
			Straggler: map[int]float64{last: 2},
		}, nil
	}
	return nil, fmt.Errorf("fabric: unknown fault scenario %q (have: none drop duplicate jitter partition straggler chaos)", name)
}

// SetFaults installs a fault plan, seeding the dedicated fault RNG stream.
// Must be called before any Send; a nil plan is a no-op.
func (f *Fabric) SetFaults(plan *FaultPlan, seed uint64) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(len(f.handlers)); err != nil {
		return err
	}
	f.faults = plan
	f.frng = rng.New(seed)
	return nil
}

// ForEachInFlight visits every packet currently on the wire (sent but not
// yet delivered, dropped packets excluded) on any fabric, with no tracking
// to switch on: the heap deliveries are taken from is the in-flight set.
// Visit order is unspecified — callers must be order-insensitive (e.g.
// computing a minimum).
func (f *Fabric) ForEachInFlight(fn func(Packet)) {
	for i := range f.wire {
		fn(f.wire[i].pkt)
	}
}

// FaultStats is the fabric-level fault counter snapshot.
type FaultStats struct {
	Dropped       int64
	Duplicated    int64
	Jittered      int64
	WindowDropped int64
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.Dropped + s.Duplicated + s.Jittered + s.WindowDropped
}

// FaultStats returns the fault counters accumulated so far.
func (f *Fabric) FaultStats() FaultStats { return f.fstats }

// fault records one injected fault occurrence.
func (f *Fabric) fault(kind FaultKind, src, dst int, delay sim.Time) {
	switch kind {
	case FaultDrop:
		f.fstats.Dropped++
	case FaultDuplicate:
		f.fstats.Duplicated++
	case FaultJitter:
		f.fstats.Jittered++
	case FaultWindowDrop:
		f.fstats.WindowDropped++
	}
	if f.FaultHook != nil {
		f.FaultHook(FaultEvent{Kind: kind, Src: src, Dst: dst, At: f.env.Now(), Delay: delay})
	}
}

// faultedDelay applies the fault plan to one transmission attempt of pkt.
// It returns the effective extra delay beyond the nominal transfer time
// and whether the packet is dropped. Draw order is fixed (window, drop,
// jitter) so a (seed, plan) pair replays identically.
func (f *Fabric) faultedDelay(pkt *Packet, lf LinkFaults) (extra sim.Time, dropped bool) {
	now := f.env.Now()
	for _, w := range f.faults.Windows {
		if !w.matches(pkt.Src, pkt.Dst) || !w.open(now) {
			continue
		}
		if w.Drop > 0 && f.frng.Float64() < w.Drop {
			f.fault(FaultWindowDrop, pkt.Src, pkt.Dst, 0)
			return 0, true
		}
		if w.ExtraLatency > 0 {
			extra += w.ExtraLatency
		}
	}
	if lf.Drop > 0 && f.frng.Float64() < lf.Drop {
		f.fault(FaultDrop, pkt.Src, pkt.Dst, 0)
		return 0, true
	}
	if lf.Jitter > 0 {
		j := sim.Time(f.frng.Float64() * float64(lf.Jitter))
		if j > 0 {
			f.fault(FaultJitter, pkt.Src, pkt.Dst, j)
			extra += j
		}
	}
	return extra, false
}
