package run

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// literalIdle makes eng run its idle passes as the literal loop
// (pe.Runtime.LiteralIdle, which only tests set).
func literalIdle(t *testing.T, eng Engine) {
	t.Helper()
	switch e := eng.(type) {
	case *core.Engine:
		e.LiteralIdle = true
	case *conservative.Engine:
		e.LiteralIdle = true
	default:
		t.Fatalf("no LiteralIdle on a %T", eng)
	}
}

// runTraced runs spec once and returns its statistics and trace bytes.
func runTraced(t *testing.T, spec Spec, literal bool) (*stats.Run, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	eng, err := New(spec, Attach{Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	if literal {
		literalIdle(t, eng)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestSteppedIdleMatchesLiteral is the end-to-end proof that idle passes
// taken as Poll steps are exact: for every GVT algorithm under every comm
// mode, with static placement and with LPs migrating off a straggler, and
// for both conservative protocols (null messages also on one node and with
// one worker per node), a run whose threads idle through the
// pass machine equals — in virtual wall clock, kernel dispatches, commit
// checksum, every worker and transport statistic and every trace byte —
// the run whose threads make each idle pass themselves. Only what a
// dispatch costs the host differs: the reference takes no step at all.
func TestSteppedIdleMatchesLiteral(t *testing.T) {
	base := Spec{Scenario: "mixed", Nodes: 3, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 30, Seed: 5}
	var specs []Spec
	for _, gvt := range []string{"barrier", "mattern", "ca-gvt", "samadi"} {
		for _, comm := range []string{"dedicated", "combined", "shared"} {
			s := base
			s.GVT, s.Comm = gvt, comm
			specs = append(specs, s)
			s.Balance, s.Faults, s.EndTime = "greedy", "straggler", 60
			specs = append(specs, s)
		}
	}
	for _, sync := range []string{"nullmsg", "window"} {
		s := base
		s.Sync = sync
		specs = append(specs, s)
	}
	// The null-message predicates answer from memory (conservative.node.ver):
	// also with no peer node to promise anything, and with no peer worker
	// whose floor could bound one.
	for _, shape := range [][2]int{{1, 2}, {3, 1}} {
		s := base
		s.Sync, s.Nodes, s.WorkersPerNode = "nullmsg", shape[0], shape[1]
		specs = append(specs, s)
	}
	var migrations int64
	for _, s := range specs {
		name := fmt.Sprintf("%s%s/%s/%s", s.GVT, s.Sync, s.Comm, s.Balance)
		if s.Nodes != base.Nodes || s.WorkersPerNode != base.WorkersPerNode {
			name += fmt.Sprintf("/%dx%d", s.Nodes, s.WorkersPerNode)
		}
		t.Run(name, func(t *testing.T) {
			ref, refTrace := runTraced(t, s, true)
			got, gotTrace := runTraced(t, s, false)
			migrations += got.Migrations
			rk, gk := ref.Kernel, got.Kernel
			if rk.Steps != 0 {
				t.Errorf("the literal run took %d Poll steps", rk.Steps)
			}
			if gk.Steps == 0 && s.Sync != "window" { // window-sync threads park at barriers and never poll
				t.Errorf("the stepped run took no Poll step: %+v", gk)
			}
			if gk.Dispatches != rk.Dispatches || gk.Callbacks != rk.Callbacks || gk.ProcSwitches+gk.Steps != rk.ProcSwitches {
				t.Errorf("kernel: stepped %+v, literal %+v; want the same dispatches, each step in place of one switch", gk, rk)
			}
			a, b := *ref, *got
			a.Kernel, b.Kernel = rk, rk
			if a != b {
				t.Errorf("statistics differ\nliteral %+v\nstepped %+v", a, b)
			}
			if !bytes.Equal(refTrace, gotTrace) {
				t.Errorf("traces differ (%d and %d bytes)", len(refTrace), len(gotTrace))
			}
		})
	}
	if migrations == 0 {
		t.Error("no greedy run migrated an LP: the matrix does not exercise the migration stages")
	}
}
