// Package balance decides which LPs to migrate between nodes, and when.
//
// The Time Warp engine feeds every policy the same telemetry the PR 1
// metrics registry samples — per-node committed-event rate, rollback
// rate, and LVT lag relative to GVT — once per GVT round, computed only
// from committed (post-GVT) state. A policy answers with a list of LP
// moves; the engine executes them at the GVT commit point, the only
// moment an LP's pre-GVT history has been fossil-collected and its state
// is safely serializable. Policies are pure consumers of these snapshots:
// they never see speculative state, so no decision can perturb the
// committed event stream.
//
// All policies are deterministic: inputs arrive in a fixed order (nodes
// ascending, LPs in worker placement order), internal state is slice- or
// lookup-only (no map iteration), and ties break toward the lowest index.
package balance

import (
	"fmt"
	"math"

	"repro/internal/event"
)

// NodeStats is one node's telemetry snapshot at a GVT round.
type NodeStats struct {
	Node int // node id
	LPs  int // LPs currently hosted

	Committed       int64 // cumulative committed events
	CommittedDelta  int64 // committed since the previous round
	RolledBack      int64 // cumulative rolled-back events
	RolledBackDelta int64

	// MinLVT is the minimum local virtual time over the node's workers
	// (the node's GVT contribution); +Inf when the node is fully drained.
	MinLVT float64
	// Lag is MinLVT - GVT: how far past the commit horizon the node has
	// advanced. The node with the smallest Lag is the cluster's
	// bottleneck — GVT waits on it.
	Lag float64
	// CostFactor is the node's relative per-operation cost from the
	// fault plan (1 = nominal, 4 = a 4x straggler).
	CostFactor float64
}

// LPLoad is one LP's per-round load sample.
type LPLoad struct {
	LP   event.LPID
	Node int   // node currently hosting the LP
	Heat int64 // events committed by this LP since the previous round
}

// Move asks the engine to migrate LP from node From to node To at the
// next GVT commit point.
type Move struct {
	LP       event.LPID
	From, To int
}

// Policy decides migrations from per-round committed-state telemetry.
// Decide is called once per GVT round (round is 1-based, gvt the new
// global virtual time); it may keep internal state across calls (for
// heat accumulation, cooldowns, hysteresis).
type Policy interface {
	Name() string
	Decide(round int64, gvt float64, nodes []NodeStats, lps []LPLoad) []Move
}

// The built-in policies' tuning, shared by both.
const (
	// threshold is greedy's imbalance trigger: the LVT-lag spread,
	// measured in mean GVT-round advances, above which the cluster is
	// considered imbalanced.
	threshold = 1.5
	// cooldown is the number of GVT rounds to wait after issuing moves
	// before considering new ones — the hysteresis that prevents
	// thrashing. It arms only once a decision has produced moves; the
	// first decision is gated by warmup alone.
	cooldown = 8
	// maxMoves bounds migrations per decision.
	maxMoves = 2
	// warmup is the number of initial GVT rounds with no decisions, so
	// heat statistics are meaningful.
	warmup = 2
)

// Names lists the built-in policy names accepted by New.
func Names() []string { return []string{"static", "greedy", "straggler"} }

// New returns the named built-in policy. "" and "static" mean no
// balancing ("static" still runs the full decision plumbing — it is the
// no-op Policy, useful as an A/B control). costFactors gives each node's
// relative cost (1 = nominal) to the straggler-aware policy; nil means
// all nominal.
func New(name string, costFactors []float64) (Policy, error) {
	switch name {
	case "", "static", "none":
		return Static{}, nil
	case "greedy":
		return &Greedy{}, nil
	case "straggler", "straggler-aware":
		return &StragglerAware{costFactors: costFactors}, nil
	default:
		return nil, fmt.Errorf("balance: unknown policy %q (want one of static, greedy, straggler)", name)
	}
}

// Static is the no-op policy: LPs stay on their configured home nodes.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy: never moves anything.
func (Static) Decide(int64, float64, []NodeStats, []LPLoad) []Move { return nil }

// heatTracker accumulates per-LP heat across rounds between decisions.
// The map is lookup-only; iteration order never matters because reads
// follow the caller-provided LP slice order.
type heatTracker struct {
	heat map[event.LPID]int64
}

func (h *heatTracker) add(lps []LPLoad) {
	if h.heat == nil {
		h.heat = make(map[event.LPID]int64, len(lps))
	}
	for _, l := range lps {
		if l.Heat != 0 {
			h.heat[l.LP] += l.Heat
		}
	}
}

func (h *heatTracker) reset() { h.heat = nil }

// hottestOn returns up to max LPs hosted on node, hottest first, ties
// toward the lower LP id. Selection is by repeated max-scan over the
// input slice (deterministic, and max is tiny).
func (h *heatTracker) hottestOn(node int, lps []LPLoad, max int) []event.LPID {
	picked := make(map[event.LPID]bool, max)
	var out []event.LPID
	for len(out) < max {
		bestIdx := -1
		var bestHeat int64 = -1
		for i, l := range lps {
			if l.Node != node || picked[l.LP] {
				continue
			}
			if heat := h.heat[l.LP]; heat > bestHeat {
				bestIdx, bestHeat = i, heat
			}
		}
		if bestIdx < 0 || bestHeat <= 0 {
			break
		}
		out = append(out, lps[bestIdx].LP)
		picked[lps[bestIdx].LP] = true
	}
	return out
}

// Greedy moves the hottest LPs off the most-behind node (the one whose
// local virtual time hugs GVT) onto the most-ahead node whenever the
// LVT-lag spread exceeds threshold mean GVT-round advances. cooldown
// rounds of hysteresis follow every decision.
type Greedy struct {
	tracker  heatTracker
	lastMove int64 // round of the last decision that produced moves
}

// Name implements Policy.
func (g *Greedy) Name() string { return "greedy" }

// Decide implements Policy.
func (g *Greedy) Decide(round int64, gvt float64, nodes []NodeStats, lps []LPLoad) []Move {
	g.tracker.add(lps)
	if len(nodes) < 2 || round <= warmup {
		return nil
	}
	if g.lastMove > 0 && round-g.lastMove <= cooldown {
		return nil
	}
	behind, ahead := lagExtremes(nodes)
	if behind < 0 || behind == ahead {
		return nil
	}
	// Imbalance: the LVT spread measured in units of mean per-round GVT
	// advance. Scale-free across models and EPGs.
	advance := gvt / float64(round)
	if advance <= 0 {
		return nil
	}
	spread := nodes[ahead].Lag - nodes[behind].Lag
	if math.IsInf(spread, 0) || spread/advance <= threshold {
		return nil
	}
	// Never strip the behind node bare: keep at least half its LPs.
	max := maxMoves
	if room := nodes[behind].LPs / 2; max > room {
		max = room
	}
	hot := g.tracker.hottestOn(behind, lps, max)
	if len(hot) == 0 {
		return nil
	}
	moves := make([]Move, 0, len(hot))
	for _, lp := range hot {
		moves = append(moves, Move{LP: lp, From: behind, To: ahead})
	}
	g.lastMove = round
	g.tracker.reset()
	return moves
}

// lagExtremes returns the indices of the most-behind (min finite Lag)
// and most-ahead (max Lag, +Inf allowed) nodes; ties go to the lower
// node id. behind is -1 when no node has a finite lag.
func lagExtremes(nodes []NodeStats) (behind, ahead int) {
	behind, ahead = -1, 0
	for i, n := range nodes {
		if !math.IsInf(n.Lag, 1) && n.Lag < math.MaxFloat64 {
			if behind < 0 || n.Lag < nodes[behind].Lag {
				behind = i
			}
		}
		if n.Lag > nodes[ahead].Lag {
			ahead = i
		}
	}
	return behind, ahead
}

// StragglerAware weights placement by the per-node cost model: each node
// should host LPs in proportion to its speed (1/CostFactor). Whenever a
// node holds more than its target share (beyond a one-LP hysteresis
// band), the hottest surplus LPs move to the most-underloaded node.
// Unlike Greedy it does not wait for the imbalance to show up in LVT
// lag — it knows the cost factors up front.
type StragglerAware struct {
	costFactors []float64
	tracker     heatTracker
	lastMove    int64
}

// Name implements Policy.
func (s *StragglerAware) Name() string { return "straggler" }

// Decide implements Policy.
func (s *StragglerAware) Decide(round int64, gvt float64, nodes []NodeStats, lps []LPLoad) []Move {
	s.tracker.add(lps)
	if len(nodes) < 2 || round <= warmup {
		return nil
	}
	if s.lastMove > 0 && round-s.lastMove <= cooldown {
		return nil
	}
	speed := make([]float64, len(nodes))
	total, totalLPs := 0.0, 0
	for i, n := range nodes {
		f := n.CostFactor
		if i < len(s.costFactors) && s.costFactors[i] > 0 {
			f = s.costFactors[i]
		}
		if f <= 0 {
			f = 1
		}
		speed[i] = 1 / f
		total += speed[i]
		totalLPs += n.LPs
	}
	if total <= 0 || totalLPs == 0 {
		return nil
	}
	// Most-overloaded node (largest surplus over its speed-proportional
	// target) and most-underloaded node, with a one-LP hysteresis band.
	from, to := -1, -1
	var worstOver, worstUnder float64 = 1, -1
	for i, n := range nodes {
		target := float64(totalLPs) * speed[i] / total
		diff := float64(n.LPs) - target
		if diff > worstOver {
			from, worstOver = i, diff
		}
		if diff < worstUnder || to < 0 {
			to, worstUnder = i, diff
		}
	}
	if from < 0 || to < 0 || from == to {
		return nil
	}
	max := maxMoves
	if surplus := int(worstOver); max > surplus {
		max = surplus
	}
	hot := s.tracker.hottestOn(from, lps, max)
	if len(hot) == 0 {
		// No heat data (e.g. a freshly idle surplus node): the target
		// share still holds, so fall back to placement order.
		for _, l := range lps {
			if l.Node == from && len(hot) < max {
				hot = append(hot, l.LP)
			}
		}
	}
	if len(hot) == 0 {
		return nil
	}
	moves := make([]Move, 0, len(hot))
	for _, lp := range hot {
		moves = append(moves, Move{LP: lp, From: from, To: to})
	}
	s.lastMove = round
	s.tracker.reset()
	return moves
}
