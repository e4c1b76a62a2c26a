package conservative

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/models/epidemic"
	"repro/internal/models/pcs"
	"repro/internal/models/tandem"
	"repro/internal/pe"
	"repro/internal/phold"
	"repro/internal/seq"
	"repro/internal/vtime"
)

// testModel bundles a model factory with its lookahead bound for a given
// topology.
type testModel struct {
	name      string
	lookahead vtime.Time
	factory   func(top cluster.Topology) pe.ModelFactory
}

func testModels() []testModel {
	return []testModel{
		{
			name:      "phold",
			lookahead: 0.1, // phold.Params default Lookahead
			factory: func(top cluster.Topology) pe.ModelFactory {
				params := phold.Params{Topology: top, Base: phold.ComputationDominated()}
				if top.Nodes == 1 {
					params.Base.RemotePct = 0
				}
				return phold.New(params)
			},
		},
		{
			name:      "pcs",
			lookahead: pcs.Lookahead,
			factory: func(top cluster.Topology) pe.ModelFactory {
				w, h := cluster.NearSquareGrid(top.TotalLPs())
				return pcs.New(pcs.Params{GridW: w, GridH: h})
			},
		},
		{
			name:      "epidemic",
			lookahead: epidemic.Lookahead,
			factory: func(top cluster.Topology) pe.ModelFactory {
				w, h := cluster.NearSquareGrid(top.TotalLPs())
				return epidemic.New(epidemic.Params{GridW: w, GridH: h})
			},
		},
		{
			name:      "tandem",
			lookahead: vtime.Time(tandem.Params{}.Lookahead()),
			factory: func(top cluster.Topology) pe.ModelFactory {
				return tandem.New(tandem.Params{})
			},
		},
	}
}

// TestParityWithSequentialOracle is the headline acceptance test: for
// every model and both sync protocols, across single- and multi-node
// topologies, the conservative engine commits a byte-identical event
// stream (checksum and count) to the sequential oracle.
func TestParityWithSequentialOracle(t *testing.T) {
	topologies := []cluster.Topology{
		{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 8},
		{Nodes: 1, WorkersPerNode: 4, LPsPerWorker: 4},
		{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4},
	}
	const endTime = 6.0
	const seed = 7

	for _, m := range testModels() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for _, top := range topologies {
				oracle := seq.New(m.factory(top), top.TotalLPs(), endTime, seed)
				ref := oracle.Run()
				if ref.Processed == 0 {
					t.Fatalf("oracle processed no events for %s on %+v", m.name, top)
				}
				for _, sync := range []SyncKind{SyncNullMsg, SyncWindow} {
					label := fmt.Sprintf("%s/%dn%dw%dl", sync, top.Nodes, top.WorkersPerNode, top.LPsPerWorker)
					eng := New(Config{
						Topology:  top,
						Sync:      sync,
						Lookahead: m.lookahead,
						EndTime:   endTime,
						Seed:      seed,
						Model:     m.factory(top),
					})
					r, err := eng.Run()
					if err != nil {
						t.Fatalf("%s: run failed: %v", label, err)
					}
					if r.CommitChecksum != ref.Checksum {
						t.Errorf("%s: commit checksum %016x, oracle %016x", label, r.CommitChecksum, ref.Checksum)
					}
					if r.Workers.Committed != ref.Processed {
						t.Errorf("%s: committed %d events, oracle processed %d", label, r.Workers.Committed, ref.Processed)
					}
					if r.Workers.Processed != r.Workers.Committed {
						t.Errorf("%s: conservative engine processed %d != committed %d (must never speculate)",
							label, r.Workers.Processed, r.Workers.Committed)
					}
				}
			}
		})
	}
}

// TestParityAcrossSeeds guards the stamp/RNG plumbing against
// coincidental matches at one seed.
func TestParityAcrossSeeds(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 2}
	m := testModels()[0] // phold exercises all three locality classes
	for _, seedv := range []uint64{1, 42, 12345} {
		oracle := seq.New(m.factory(top), top.TotalLPs(), 5.0, seedv)
		ref := oracle.Run()
		for _, sync := range []SyncKind{SyncNullMsg, SyncWindow} {
			eng := New(Config{
				Topology: top, Sync: sync, Lookahead: m.lookahead,
				EndTime: 5.0, Seed: seedv, Model: m.factory(top),
			})
			r, err := eng.Run()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seedv, sync, err)
			}
			if r.CommitChecksum != ref.Checksum || r.Workers.Committed != ref.Processed {
				t.Errorf("seed %d %v: checksum %016x/%d events, oracle %016x/%d",
					seedv, sync, r.CommitChecksum, r.Workers.Committed, ref.Checksum, ref.Processed)
			}
		}
	}
}

// TestDeterministicAcrossRuns pins that two identical configurations
// produce identical statistics, not just identical checksums.
func TestDeterministicAcrossRuns(t *testing.T) {
	top := cluster.Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4}
	m := testModels()[0]
	for _, sync := range []SyncKind{SyncNullMsg, SyncWindow} {
		mk := func() Config {
			return Config{Topology: top, Sync: sync, Lookahead: m.lookahead,
				EndTime: 5.0, Seed: 3, Model: m.factory(top)}
		}
		a, err := New(mk()).Run()
		if err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		b, err := New(mk()).Run()
		if err != nil {
			t.Fatalf("%v: %v", sync, err)
		}
		if *a != *b {
			t.Errorf("%v: identical configs diverged:\n  a=%+v\n  b=%+v", sync, a, b)
		}
	}
}
