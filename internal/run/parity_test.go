package run

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/pe"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The sets a parity input picks from: after the four GVT algorithms come
// the conservative protocols; faults and policies are Time Warp's only.
var (
	parityModels   = []string{"phold", "pcs", "epidemic", "tandem"}
	parityAlgs     = append(core.GVTNames(), conservative.SyncNames()...)
	parityFaults   = append([]string{""}, fabric.ScenarioNames()...)
	parityPolicies = []string{"", "greedy", "straggler"}
	faultStraggler = uint8(slices.Index(parityFaults, "straggler"))
)

// Indices the seed rows name.
const (
	algBarrier, algMattern, algCA, algSamadi, algNullmsg, algWindow = 0, 1, 2, 3, 4, 5
	modelPCS, modelEpidemic, modelTandem                            = 1, 2, 3
	scenarioMixed                                                   = 2
)

// parityInput is FuzzEngineParity's input, field for field: set indices, a
// shape, the GVT interval less 2 and checkpoint interval less 1, the end
// (0: default) and seed, and a phold phase (remote and regional percent,
// EPG) replacing the scenario when EPG is not 0.
type parityInput struct {
	Model, Alg, Comm, Faults, Policy, Scenario uint8
	Nodes, Workers, LPs                        uint8
	Interval, Checkpoint, End                  uint8
	Seed                                       uint64
	Remote, Regional                           uint8
	EPG                                        uint16
}

// dim keeps a shape byte of 1 to wide (seed shapes), folds others to 1-small.
func dim(b uint8, small, wide int) int {
	if n := int(b); n >= 1 && n <= wide {
		return n
	}
	return int(b)%small + 1
}

// decode returns the input's spec and its phold phase override (nil: none).
func (in parityInput) decode() (Spec, *phold.Phase) {
	pick := func(set []string, i uint8) string { return set[int(i)%len(set)] }
	s := Spec{
		Model:          pick(parityModels, in.Model),
		Nodes:          dim(in.Nodes, 3, 8),
		WorkersPerNode: dim(in.Workers, 3, 8),
		LPsPerWorker:   dim(in.LPs, 4, 16),
		EndTime:        float64(in.End),
		Seed:           in.Seed,
	}
	if alg := pick(parityAlgs, in.Alg); slices.Contains(core.GVTNames(), alg) {
		s.GVT, s.Comm = alg, pick(core.CommNames(), in.Comm)
		s.Faults, s.Balance = pick(parityFaults, in.Faults), pick(parityPolicies, in.Policy)
		s.GVTInterval, s.CheckpointInterval = int(in.Interval%7)+2, int(in.Checkpoint%4)+1
	} else {
		s.Sync = alg
	}
	if s.Model != "phold" {
		return s, nil
	}
	if in.EPG == 0 {
		s.Scenario = pick([]string{"comp", "comm", "mixed"}, in.Scenario)
		return s, nil
	}
	ph := &phold.Phase{RemotePct: float64(in.Remote%31) / 100, RegionalPct: float64(in.Regional%61) / 100, EPG: int(in.EPG)}
	if s.Nodes == 1 {
		ph.RemotePct = 0 // a single node has no remote destination
	}
	return s, ph
}

// parityDispatchBudget bounds an input's host cost: the kernel dispatches
// of its literal run. The largest seed row makes about 745k; runaway
// optimism (pcs, 4 x 3 x 2 LPs, end 30, Mattern: 300 events processed per
// commit) or null messages over six nodes of one-LP workers make millions.
const parityDispatchBudget = 2_000_000

// cappedBuffer is a trace sink that cancels its run, at each 64 KiB the
// writer flushes, once past cap bytes or parityDispatchBudget dispatches.
type cappedBuffer struct {
	bytes.Buffer
	cap    int
	env    *sim.Env
	cancel func()
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if b.Len()+len(p) > b.cap || b.env.Counters().Dispatches > parityDispatchBudget {
		b.cancel()
	}
	return b.Buffer.Write(p)
}

// runTraced runs spec on model and returns its statistics (nil: cancelled)
// and trace; literal sets pe.Runtime.LiteralIdle (no idle pass stepped).
func runTraced(t *testing.T, spec Spec, model pe.ModelFactory, literal bool, traceCap int) (*stats.Run, []byte) {
	t.Helper()
	buf := &cappedBuffer{cap: traceCap}
	tw := trace.NewWriter(buf)
	eng, err := New(spec, Attach{Trace: tw, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	buf.cancel = eng.Cancel
	switch e := eng.(type) {
	case *core.Engine:
		e.LiteralIdle, buf.env = literal, e.Env
	case *conservative.Engine:
		e.LiteralIdle, buf.env = literal, e.Env
	}
	r, err := eng.Run()
	if errors.Is(err, sim.ErrCancelled) {
		return nil, nil
	}
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// parityChecked hands the stepped runs of TestNewMatchesOracle and
// TestSteppedIdleMatchesLiteral, which run before the fuzz target's seed
// rows, to checkParity, which takes each once: a shared row runs once.
var parityChecked sync.Map // parityInput -> *stats.Run

// checkParity is the one engine-correctness check. It runs the input with
// literal idle passes, with stepped ones and on the sequential oracle, and
// requires the oracle's commit count and checksum; a final GVT past the
// end, or no conservative speculation; the stepped run equal to the
// literal one in every statistic and trace byte, its kernel making the
// same dispatches with each Poll step in place of a switch or chained
// filing; and its trace within twice the literal one's. An input outside
// the spec space or past parityDispatchBudget is skipped. It returns the
// stepped run's statistics.
func checkParity(t *testing.T, in parityInput) *stats.Run {
	t.Helper()
	if r, ok := parityChecked.LoadAndDelete(in); ok {
		return r.(*stats.Run)
	}
	spec, phase := in.decode()
	c, err := spec.Canonical()
	if err != nil {
		t.Skipf("outside the spec space: %v", err)
	}
	model := c.model()
	if phase != nil {
		model = phold.New(phold.Params{Topology: c.Topology(), Base: *phase})
	}
	lit, litTrace := runTraced(t, c, model, true, math.MaxInt)
	if lit == nil {
		t.Skipf("the literal run passed %d kernel dispatches", parityDispatchBudget)
	}
	// A thread parked past a missed Touch can run on with no end.
	got, gotTrace := runTraced(t, c, model, false, 2*len(litTrace))
	if got == nil {
		t.Fatalf("the stepped run was cancelled with its trace past %d bytes, twice the literal run's, or past the dispatches the literal run kept under: a thread missed a Touch and ran on", 2*len(litTrace))
	}
	ref := seq.New(model, c.Topology().TotalLPs(), c.EndTime, c.Seed).Run()
	if got.Workers.Committed != ref.Processed || got.CommitChecksum != ref.Checksum {
		t.Errorf("committed %d events checksum %x, oracle %d / %x", got.Workers.Committed, got.CommitChecksum, ref.Processed, ref.Checksum)
	}
	if c.Engine == "timewarp" && got.FinalGVT <= c.EndTime || c.Engine == "conservative" && got.Workers.Processed != got.Workers.Committed {
		t.Errorf("final GVT %v at end %v, %d events processed for %d committed: want the end passed, and no conservative speculation",
			got.FinalGVT, c.EndTime, got.Workers.Processed, got.Workers.Committed)
	}
	lk, gk := lit.Kernel, got.Kernel
	if lk.Steps != 0 || gk.Dispatches != lk.Dispatches || gk.Callbacks != lk.Callbacks || gk.ProcSwitches+gk.Steps+gk.Chained != lk.ProcSwitches+lk.Chained {
		t.Errorf("kernel: stepped %+v, literal %+v; want no literal step, the same dispatches, each step in place of one switch or chained filing", gk, lk)
	}
	if lit.Kernel = gk; *lit != *got {
		t.Errorf("statistics differ\nliteral %+v\nstepped %+v", lit, got)
	}
	if !bytes.Equal(litTrace, gotTrace) {
		t.Errorf("traces differ (%d and %d bytes)", len(litTrace), len(gotTrace))
	}
	return got
}

// paritySeeds are the seed rows tier-1 runs. Time Warp phold rows of the
// first three matrices run 10 % remote, 30 % regional, EPG 500 traffic
// (other models ignore the phase).
func paritySeeds() (rows []parityInput) {
	// Every GVT algorithm under every comm mode on four shapes.
	for _, sh := range [][3]uint8{{1, 1, 8}, {1, 4, 4}, {2, 2, 4}, {4, 3, 2}} {
		for alg := uint8(algBarrier); alg <= algSamadi; alg++ {
			for comm := range core.CommNames() {
				rows = append(rows, parityInput{Alg: alg, Comm: uint8(comm), Nodes: sh[0], Workers: sh[1], LPs: sh[2], Interval: 1, End: 30, Seed: 42, Remote: 10, Regional: 30, EPG: 500})
			}
		}
	}
	// Every fault scenario under both token-ring algorithms.
	for _, alg := range []uint8{algMattern, algCA} {
		for f := range fabric.ScenarioNames() {
			rows = append(rows, parityInput{Alg: alg, Faults: uint8(f + 1), Nodes: 2, Workers: 2, LPs: 4, Interval: 1, End: 20, Seed: 42, Remote: 10, Regional: 30, EPG: 500})
		}
	}
	// Every model under every balance policy on CA-GVT, with or without a straggler.
	for m, end := range []uint8{30, 60, 30, 200} { // in parityModels order
		for pol := range parityPolicies {
			for _, f := range []uint8{0, faultStraggler} {
				rows = append(rows, parityInput{Model: uint8(m), Alg: algCA, Faults: f, Policy: uint8(pol), Nodes: 2, Workers: 2, LPs: 4, Interval: 1, End: end, Seed: 42, Remote: 10, Regional: 30, EPG: 500})
			}
		}
	}
	// Every model on Mattern and both conservative protocols, then longer.
	rows = append(append(rows, newRows()...),
		parityInput{Model: modelPCS, Alg: algCA, Nodes: 2, Workers: 2, LPs: 8, Interval: 1, End: 30, Seed: 5},
		parityInput{Model: modelEpidemic, Alg: algMattern, Nodes: 2, Workers: 2, LPs: 8, Interval: 1, End: 25, Seed: 3},
		parityInput{Model: modelTandem, Alg: algBarrier, Nodes: 2, Workers: 2, LPs: 4, Interval: 1, End: 150, Seed: 9})
	// The conservative protocols on three shapes, and phold at three seeds.
	for _, alg := range []uint8{algNullmsg, algWindow} {
		for m := range parityModels {
			for _, sh := range [][3]uint8{{1, 1, 8}, {1, 4, 4}, {2, 2, 4}} {
				rows = append(rows, parityInput{Model: uint8(m), Alg: alg, Nodes: sh[0], Workers: sh[1], LPs: sh[2], End: 6, Seed: 7})
			}
		}
		for _, seed := range []uint64{1, 42, 12345} {
			rows = append(rows, parityInput{Alg: alg, Nodes: 2, Workers: 2, LPs: 2, End: 5, Seed: seed})
		}
	}
	for _, r := range idleRows() {
		rows = append(rows, r.in)
	}
	return rows
}

// newRows are TestNewMatchesOracle's: every model at the spec defaults, on
// Time Warp and on both conservative protocols.
func newRows() (rows []parityInput) {
	for m := range parityModels {
		for _, alg := range []uint8{algMattern, algNullmsg, algWindow} {
			rows = append(rows, parityInput{Model: uint8(m), Alg: alg, Nodes: 2, Workers: 2, LPs: 4, Interval: 2, End: 5, Seed: 1})
		}
	}
	return rows
}

// idleRows are TestSteppedIdleMatchesLiteral's rows, by name: the mixed
// scenario under every GVT algorithm and comm mode, static and migrating
// off a straggler; both conservative protocols, null messages also with no
// peer node or worker; and two paper-width nodes, whose idle threads park
// in lockstep and wake under one key.
func idleRows() (rows []struct {
	name string
	in   parityInput
}) {
	add := func(name string, in parityInput) {
		rows = append(rows, struct {
			name string
			in   parityInput
		}{name, in})
	}
	mixed := parityInput{Scenario: scenarioMixed, Nodes: 3, Workers: 2, LPs: 4, Interval: 2, End: 30, Seed: 5}
	for alg := uint8(algBarrier); alg <= algSamadi; alg++ {
		for comm, commName := range core.CommNames() {
			in := mixed
			in.Alg, in.Comm = alg, uint8(comm)
			add(parityAlgs[alg]+"/"+commName+"/", in)
			in.Policy, in.Faults, in.End = 1, faultStraggler, 60
			add(parityAlgs[alg]+"/"+commName+"/greedy", in)
		}
	}
	for _, c := range [][3]uint8{{algNullmsg, 3, 2}, {algWindow, 3, 2}, {algNullmsg, 1, 2}, {algNullmsg, 3, 1}} {
		in := mixed
		in.Alg, in.Nodes, in.Workers = c[0], c[1], c[2]
		name := parityAlgs[c[0]] + "//"
		if c[1] != mixed.Nodes || c[2] != mixed.Workers {
			name += fmt.Sprintf("/%dx%d", c[1], c[2])
		}
		add(name, in)
	}
	add("barrier///8x8/tandem", parityInput{Model: modelTandem, Alg: algBarrier, Nodes: 8, Workers: 8, LPs: 4, Interval: 2, End: 3, Seed: 5})
	add("nullmsg///8x4", parityInput{Scenario: scenarioMixed, Alg: algNullmsg, Nodes: 8, Workers: 4, LPs: 16, End: 1, Seed: 5})
	return rows
}

// FuzzEngineParity holds checkParity over the spec space: every model;
// Time Warp under every GVT algorithm, comm mode, fault scenario, balance
// policy and GVT and checkpoint interval, or either conservative protocol;
// shapes up to 3 x 3 x 4; any seed; and for phold, any traffic phase.
func FuzzEngineParity(f *testing.F) {
	for _, in := range paritySeeds() {
		s, _ := in.decode()
		if _, err := s.Canonical(); err != nil {
			f.Fatalf("seed row %+v: %v", in, err)
		}
		f.Add(in.Model, in.Alg, in.Comm, in.Faults, in.Policy, in.Scenario, in.Nodes, in.Workers, in.LPs, in.Interval, in.Checkpoint, in.End, in.Seed, in.Remote, in.Regional, in.EPG)
	}
	f.Fuzz(func(t *testing.T, model, alg, comm, faults, policy, scenario, nodes, workers, lps, interval, checkpoint, end uint8, seed uint64, remote, regional uint8, epg uint16) {
		t.Parallel()
		checkParity(t, parityInput{model, alg, comm, faults, policy, scenario, nodes, workers, lps, interval, checkpoint, end, seed, remote, regional, epg})
	})
}

// TestSteppedIdleMatchesLiteral is the end-to-end proof that idle passes
// taken as Poll steps are exact: checkParity holds each idle row's stepped
// run equal to its literal one in every statistic and trace byte. It also
// holds the rows to what is no invariant: every run but window sync's
// (parked at barriers) takes Poll steps, and some greedy run migrates.
func TestSteppedIdleMatchesLiteral(t *testing.T) {
	var migrations atomic.Int64
	t.Cleanup(func() {
		if migrations.Load() == 0 {
			t.Error("no greedy run migrated an LP: the rows do not exercise the migration stages")
		}
	})
	for _, row := range idleRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			r := checkParity(t, row.in)
			parityChecked.Store(row.in, r)
			migrations.Add(r.Migrations)
			if s, _ := row.in.decode(); r.Kernel.Steps == 0 && s.Sync != "window" {
				t.Errorf("the stepped run took no Poll step: %+v", r.Kernel)
			}
		})
	}
}

// TestNewMatchesOracle: for every model, New on a Time Warp spec and on
// each conservative twin returns an engine whose run commits exactly the
// sequential oracle's stream.
func TestNewMatchesOracle(t *testing.T) {
	for _, in := range newRows() {
		r := checkParity(t, in)
		parityChecked.Store(in, r)
		if r.Workers.Committed == 0 {
			t.Errorf("%+v committed nothing", in)
		}
	}
}
