package run

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/sim"
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

// cappedBuffer is a trace sink that cancels its run once the bytes
// written pass cap (0: never).
type cappedBuffer struct {
	bytes.Buffer
	cap    int
	cancel func()
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if b.cap > 0 && b.Len()+len(p) > b.cap {
		b.cancel()
	}
	return b.Buffer.Write(p)
}

// runTraced runs spec once and returns its statistics and trace bytes. A
// run whose trace passes traceCap bytes (0: no cap) is cancelled and fails
// the test: a thread left parked past a missed Touch can run on with no
// end, its trace growing until the host runs out of memory.
func runTraced(t *testing.T, spec Spec, literal bool, traceCap int) (*stats.Run, []byte) {
	t.Helper()
	buf := &cappedBuffer{cap: traceCap}
	tw := trace.NewWriter(buf)
	eng, err := New(spec, Attach{Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	buf.cancel = eng.Cancel
	if literal {
		literalIdle(t, eng)
	}
	r, err := eng.Run()
	if errors.Is(err, sim.ErrCancelled) && traceCap > 0 && buf.Len() > traceCap {
		t.Fatalf("cancelled with its trace past %d bytes, twice the literal run's: a thread missed a Touch and ran on (%v)", traceCap, err)
	}
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
	// The null-message predicates park their threads until a Touch: also
	// with no peer node to promise anything, and with no peer worker whose
	// floor could bound one.
	for _, shape := range [][2]int{{1, 2}, {3, 1}} {
		s := base
		s.Sync, s.Nodes, s.WorkersPerNode = "nullmsg", shape[0], shape[1]
		specs = append(specs, s)
	}
	// Paper-width nodes: dozens of idle threads park in lockstep and wake
	// together, their next steps tied under one key.
	specs = append(specs,
		Spec{Model: "tandem", GVT: "barrier", Nodes: 8, WorkersPerNode: 8, LPsPerWorker: 4, EndTime: 3, Seed: 5},
		Spec{Scenario: "mixed", Sync: "nullmsg", Nodes: 8, WorkersPerNode: 4, LPsPerWorker: 16, EndTime: 1, Seed: 5})
	var migrations int64
	for _, s := range specs {
		name := fmt.Sprintf("%s%s/%s/%s", s.GVT, s.Sync, s.Comm, s.Balance)
		if s.Nodes != base.Nodes || s.WorkersPerNode != base.WorkersPerNode {
			name += fmt.Sprintf("/%dx%d", s.Nodes, s.WorkersPerNode)
		}
		if s.Model != "" {
			name += "/" + s.Model
		}
		t.Run(name, func(t *testing.T) {
			ref, refTrace := runTraced(t, s, true, 0)
			got, gotTrace := runTraced(t, s, false, 2*len(refTrace))
			migrations += got.Migrations
			rk, gk := ref.Kernel, got.Kernel
			if rk.Steps != 0 {
				t.Errorf("the literal run took %d Poll steps", rk.Steps)
			}
			if gk.Steps == 0 && s.Sync != "window" { // window-sync threads park at barriers and never poll
				t.Errorf("the stepped run took no Poll step: %+v", gk)
			}
			if gk.Dispatches != rk.Dispatches || gk.Callbacks != rk.Callbacks || gk.ProcSwitches+gk.Steps+gk.Chained != rk.ProcSwitches+rk.Chained {
				t.Errorf("kernel: stepped %+v, literal %+v; want the same dispatches, each step in place of one switch or chained filing", gk, rk)
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
