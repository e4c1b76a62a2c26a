package phold

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/pe"
	"repro/internal/rng"
	"repro/internal/seq"
)

func topo() cluster.Topology {
	return cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
}

func TestScenarioConstants(t *testing.T) {
	comp := ComputationDominated()
	if comp.RemotePct != 0.01 || comp.RegionalPct != 0.10 || comp.EPG != 10_000 {
		t.Errorf("ComputationDominated = %+v", comp)
	}
	comm := CommunicationDominated()
	if comm.RemotePct != 0.10 || comm.RegionalPct != 0.90 || comm.EPG != 5_000 {
		t.Errorf("CommunicationDominated = %+v", comm)
	}
}

func TestValidate(t *testing.T) {
	good := Params{Topology: topo(), Base: ComputationDominated()}
	good.Defaults()
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Topology: topo(), Base: Phase{RemotePct: 0.6, RegionalPct: 0.6}},
		{Topology: topo(), Base: Phase{RemotePct: -0.1}},
		{Topology: topo(), Base: Phase{EPG: -1}},
		{Topology: cluster.Topology{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 1},
			Base: Phase{RemotePct: 0.5}},
		{Topology: topo(), Base: ComputationDominated(),
			Mixed: &MixedModel{Comm: CommunicationDominated(), CompFrac: 0, CommFrac: 5, EndTime: 10}},
		{Topology: topo(), Base: ComputationDominated(),
			Mixed: &MixedModel{Comm: CommunicationDominated(), CompFrac: 5, CommFrac: 5}},
	}
	for i, p := range bad {
		p.Defaults()
		if p.Validate() == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestPhaseAtSinglePhase(t *testing.T) {
	p := Params{Topology: topo(), Base: ComputationDominated()}
	p.Defaults()
	for _, tt := range []float64{0, 5, 99} {
		if p.PhaseAt(tt) != p.Base {
			t.Errorf("PhaseAt(%v) != Base", tt)
		}
	}
}

func TestPhaseAtMixedModel(t *testing.T) {
	p := Params{
		Topology: topo(),
		Base:     ComputationDominated(),
		Mixed: &MixedModel{
			Comm:     CommunicationDominated(),
			CompFrac: 10, CommFrac: 15, EndTime: 100,
		},
	}
	p.Defaults()
	// Cycle = 25 time units: [0,10) comp, [10,25) comm, repeating.
	cases := []struct {
		t    float64
		comp bool
	}{
		{0, true}, {9.99, true}, {10, false}, {24.9, false},
		{25, true}, {34.9, true}, {35, false}, {50, true},
		{60, false}, {75, true},
	}
	for _, c := range cases {
		got := p.PhaseAt(c.t) == p.Base
		if got != c.comp {
			t.Errorf("PhaseAt(%v): comp=%v, want %v", c.t, got, c.comp)
		}
	}
}

func TestDefaults(t *testing.T) {
	p := Params{Topology: topo(), Base: ComputationDominated()}
	p.Defaults()
	if p.StartEvents != 1 || p.MeanDelay != 1.0 || p.Lookahead != 0.1 {
		t.Errorf("Defaults = %+v", p)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid params did not panic")
		}
	}()
	New(Params{Topology: topo(), Base: Phase{RemotePct: 2}})
}

// TestDestinationClasses: over many draws, pick produces the configured
// locality mix (within tolerance) and never targets out of range.
func TestDestinationClasses(t *testing.T) {
	top := topo()
	p := Params{Topology: top, Base: Phase{RemotePct: 0.2, RegionalPct: 0.5, EPG: 1}}
	factory := New(p)
	e := seq.New(factory, top.TotalLPs(), 200, 5)
	r := e.Run()
	if r.Processed < 1000 {
		t.Fatalf("only %d events", r.Processed)
	}
	// Classify committed traffic by rerunning the picks via a fresh model:
	// simpler: drive one LP's pick directly through the seq context is not
	// exposed, so classify statistically via a direct draw harness below.
	m := &Model{p: &p, self: 0}
	counts := map[event.Class]int{}
	ctx := &fakeCtx{total: top.TotalLPs(), rng: rng.New(123)}
	for i := 0; i < 20000; i++ {
		dst := m.pick(ctx, p.Base)
		if int(dst) >= top.TotalLPs() {
			t.Fatalf("pick out of range: %d", dst)
		}
		counts[top.Class(0, dst)]++
	}
	remote := float64(counts[event.Remote]) / 20000
	regional := float64(counts[event.Regional]) / 20000
	local := float64(counts[event.Local]) / 20000
	if remote < 0.17 || remote > 0.23 {
		t.Errorf("remote fraction = %v, want ~0.2", remote)
	}
	if regional < 0.46 || regional > 0.54 {
		t.Errorf("regional fraction = %v, want ~0.5", regional)
	}
	if local < 0.27 || local > 0.33 {
		t.Errorf("local fraction = %v, want ~0.3", local)
	}
}

// fakeCtx is a minimal pe.Context for exercising pick/delay directly.
type fakeCtx struct {
	total int
	rng   *rng.Stream
	sent  int
}

func (c *fakeCtx) Self() event.LPID                         { return 0 }
func (c *fakeCtx) Now() float64                             { return 0 }
func (c *fakeCtx) RNG() *rng.Stream                         { return c.rng }
func (c *fakeCtx) NumLPs() int                              { return c.total }
func (c *fakeCtx) Spin(int)                                 {}
func (c *fakeCtx) Send(event.LPID, float64, uint16, []byte) { c.sent++ }

var _ pe.Context = (*fakeCtx)(nil)

func TestSnapshotRestore(t *testing.T) {
	p := Params{Topology: topo(), Base: ComputationDominated()}
	p.Defaults()
	m := &Model{p: &p, self: 1, processed: 42}
	snap := m.Snapshot()
	m.processed = 99
	m.Restore(snap)
	if m.Processed() != 42 {
		t.Errorf("Processed after restore = %d", m.Processed())
	}
}

// Property: PhaseAt is total and returns one of the two phases for any
// non-negative time.
func TestPhaseAtProperty(t *testing.T) {
	p := Params{
		Topology: topo(),
		Base:     ComputationDominated(),
		Mixed: &MixedModel{
			Comm:     CommunicationDominated(),
			CompFrac: 7, CommFrac: 3, EndTime: 50,
		},
	}
	p.Defaults()
	prop := func(raw float64) bool {
		tt := raw
		if tt < 0 {
			tt = -tt
		}
		if tt > 1e9 || tt != tt {
			tt = 1
		}
		ph := p.PhaseAt(tt)
		return ph == p.Base || ph == p.Mixed.Comm
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
