package balance

import (
	"math"
	"testing"

	"repro/internal/event"
)

func twoNodes(lag0, lag1 float64) []NodeStats {
	return []NodeStats{
		{Node: 0, LPs: 4, Lag: lag0, CostFactor: 1},
		{Node: 1, LPs: 4, Lag: lag1, CostFactor: 1},
	}
}

func loads(heat ...int64) []LPLoad {
	out := make([]LPLoad, len(heat))
	for i, h := range heat {
		out[i] = LPLoad{LP: event.LPID(i), Node: i / 4, Heat: h}
	}
	return out
}

func TestNewValidatesNames(t *testing.T) {
	for _, name := range append(Names(), "", "none", "straggler-aware") {
		p, err := New(name, nil)
		if err != nil || p == nil {
			t.Errorf("New(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := New("round-robin", nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestStaticNeverMoves(t *testing.T) {
	p, _ := New("static", nil)
	for round := int64(1); round < 50; round++ {
		if m := p.Decide(round, float64(round), twoNodes(0.1, 99), loads(9, 9, 9, 9, 1, 1, 1, 1)); m != nil {
			t.Fatalf("static moved at round %d: %v", round, m)
		}
	}
}

// TestGreedyThresholdAndHysteresis walks the greedy policy through its
// whole state machine: quiet during warmup, quiet at the lag-spread
// threshold, moving hottest-first once past it, then quiet again for
// cooldown rounds.
func TestGreedyThresholdAndHysteresis(t *testing.T) {
	p, _ := New("greedy", nil)
	lp := loads(1, 8, 4, 2, 0, 0, 0, 0) // node 0 hot, LP 1 hottest

	for round := int64(1); round <= warmup; round++ {
		if m := p.Decide(round, float64(round), twoNodes(0, 99), lp); m != nil {
			t.Fatalf("moved during warmup at round %d: %v", round, m)
		}
	}
	// A spread of exactly threshold mean advances (gvt == round: a mean
	// advance of 1) does not trigger.
	round := int64(warmup + 1)
	if m := p.Decide(round, float64(round), twoNodes(0, threshold), lp); m != nil {
		t.Fatalf("moved at the threshold: %v", m)
	}
	// Spread 50 triggers: the hottest LPs of node 0 move to node 1.
	round++
	m := p.Decide(round, float64(round), twoNodes(0, 50), lp)
	if len(m) != maxMoves {
		t.Fatalf("moves = %v, want %d", m, maxMoves)
	}
	if m[0].LP != 1 || m[1].LP != 2 || m[0].From != 0 || m[0].To != 1 {
		t.Errorf("wrong moves %v: want hottest-first LPs 1,2 from node 0 to 1", m)
	}
	// Cooldown: the next cooldown rounds stay quiet despite the same imbalance.
	moved := round
	for round = moved + 1; round <= moved+cooldown; round++ {
		if m := p.Decide(round, float64(round), twoNodes(0, 50), lp); m != nil {
			t.Fatalf("moved during cooldown at round %d: %v", round, m)
		}
	}
	if m := p.Decide(round, float64(round), twoNodes(0, 50), lp); len(m) == 0 {
		t.Error("no moves after cooldown expired")
	}
}

func TestGreedyIgnoresInfiniteSpread(t *testing.T) {
	p, _ := New("greedy", nil)
	if m := p.Decide(warmup+3, warmup+3, twoNodes(1, math.Inf(1)), loads(1, 1, 1, 1, 1, 1, 1, 1)); m != nil {
		t.Errorf("moved on a drained node's +Inf lag: %v", m)
	}
}

func TestGreedyKeepsHalfTheLPs(t *testing.T) {
	// maxMoves must be capped at half the behind node's 2 LPs.
	p, _ := New("greedy", nil)
	nodes := []NodeStats{
		{Node: 0, LPs: 2, Lag: 0, CostFactor: 1},
		{Node: 1, LPs: 6, Lag: 99, CostFactor: 1},
	}
	m := p.Decide(warmup+1, warmup+1, nodes, loads(5, 5, 5, 5, 0, 0, 0, 0))
	if len(m) != 1 {
		t.Errorf("moved %d LPs off a 2-LP node, want 1", len(m))
	}
}

// TestStragglerAwareTargets: with node 1 four times slower it should
// host a quarter of node 0's share; the policy moves the surplus without
// needing any LVT lag signal. The cost factors reach it either in the
// node telemetry or through New.
func TestStragglerAwareTargets(t *testing.T) {
	for _, c := range []struct {
		name    string
		factors []float64
		node1   float64
	}{
		{"telemetry", nil, 4},
		{"new", []float64{1, 4}, 0},
	} {
		p, _ := New("straggler", c.factors)
		nodes := []NodeStats{
			{Node: 0, LPs: 4, CostFactor: 1},
			{Node: 1, LPs: 4, CostFactor: c.node1},
		}
		m := p.Decide(warmup+1, warmup+1, nodes, loads(0, 0, 0, 0, 7, 3, 5, 1))
		if len(m) == 0 {
			t.Fatalf("%s: no moves despite a 4x straggler hosting half the LPs", c.name)
		}
		for _, mv := range m {
			if mv.From != 1 || mv.To != 0 {
				t.Errorf("%s: move %v: want from the straggler (1) to the fast node (0)", c.name, mv)
			}
		}
		if m[0].LP != 4 {
			t.Errorf("%s: first move is LP %d, want the straggler's hottest (4)", c.name, m[0].LP)
		}
	}
}

func TestStragglerAwareBalancedIsQuiet(t *testing.T) {
	p, _ := New("straggler", nil)
	nodes := []NodeStats{
		{Node: 0, LPs: 4, CostFactor: 1},
		{Node: 1, LPs: 4, CostFactor: 1},
	}
	for round := int64(1); round < 20; round++ {
		if m := p.Decide(round, float64(round), nodes, loads(1, 2, 3, 4, 4, 3, 2, 1)); m != nil {
			t.Fatalf("moved on a balanced cluster at round %d: %v", round, m)
		}
	}
}

// TestPoliciesAreDeterministic: identical input sequences must yield
// identical decision sequences.
func TestPoliciesAreDeterministic(t *testing.T) {
	for _, name := range []string{"greedy", "straggler"} {
		run := func() [][]Move {
			p, _ := New(name, nil)
			var out [][]Move
			for round := int64(1); round <= 3*cooldown; round++ {
				nodes := []NodeStats{
					{Node: 0, LPs: 4, Lag: 0.1, CostFactor: 4},
					{Node: 1, LPs: 4, Lag: float64(round), CostFactor: 1},
				}
				out = append(out, p.Decide(round, float64(round), nodes, loads(3, 1, 4, 1, 5, 9, 2, 6)))
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("%s: round %d differs: %v vs %v", name, i+1, a[i], b[i])
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: round %d move %d differs", name, i+1, j)
				}
			}
		}
	}
}
