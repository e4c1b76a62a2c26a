package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func TestTopologyCounts(t *testing.T) {
	top := Topology{Nodes: 8, WorkersPerNode: 60, LPsPerWorker: 128}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.TotalWorkers() != 480 {
		t.Errorf("TotalWorkers = %d", top.TotalWorkers())
	}
	if top.TotalLPs() != 61440 {
		t.Errorf("TotalLPs = %d", top.TotalLPs())
	}
}

func TestValidateRejectsNonPositive(t *testing.T) {
	bad := []Topology{
		{Nodes: 0, WorkersPerNode: 1, LPsPerWorker: 1},
		{Nodes: 1, WorkersPerNode: 0, LPsPerWorker: 1},
		{Nodes: 1, WorkersPerNode: 1, LPsPerWorker: 0},
	}
	for _, top := range bad {
		if top.Validate() == nil {
			t.Errorf("Validate(%+v) = nil", top)
		}
	}
}

func TestPlacement(t *testing.T) {
	top := Topology{Nodes: 2, WorkersPerNode: 3, LPsPerWorker: 4}
	// LP 0..11 on node 0 (workers 0,1,2), LP 12..23 on node 1.
	cases := []struct {
		lp     event.LPID
		node   int
		worker int
	}{
		{0, 0, 0}, {3, 0, 0}, {4, 0, 1}, {11, 0, 2},
		{12, 1, 0}, {15, 1, 0}, {16, 1, 1}, {23, 1, 2},
	}
	for _, c := range cases {
		if got := top.NodeOf(c.lp); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.lp, got, c.node)
		}
		n, w := top.WorkerOf(c.lp)
		if n != c.node || w != c.worker {
			t.Errorf("WorkerOf(%d) = (%d,%d), want (%d,%d)", c.lp, n, w, c.node, c.worker)
		}
	}
	if top.FirstLP(1, 2) != 20 {
		t.Errorf("FirstLP(1,2) = %d, want 20", top.FirstLP(1, 2))
	}
	if top.GlobalWorkerOf(17) != 4 {
		t.Errorf("GlobalWorkerOf(17) = %d, want 4", top.GlobalWorkerOf(17))
	}
}

func TestClass(t *testing.T) {
	top := Topology{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 2}
	cases := []struct {
		src, dst event.LPID
		want     event.Class
	}{
		{0, 0, event.Local},    // self
		{0, 1, event.Local},    // same worker
		{0, 2, event.Regional}, // same node, other worker
		{0, 4, event.Remote},   // other node
		{5, 2, event.Remote},
		{6, 7, event.Local},
	}
	for _, c := range cases {
		if got := top.Class(c.src, c.dst); got != c.want {
			t.Errorf("Class(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

// Property: placement functions are mutually consistent for every LP.
func TestPlacementConsistencyProperty(t *testing.T) {
	prop := func(nodes, workers, lps uint8) bool {
		top := Topology{
			Nodes:          int(nodes%8) + 1,
			WorkersPerNode: int(workers%8) + 1,
			LPsPerWorker:   int(lps%8) + 1,
		}
		for lp := 0; lp < top.TotalLPs(); lp++ {
			id := event.LPID(lp)
			n, w := top.WorkerOf(id)
			if top.NodeOf(id) != n {
				return false
			}
			if top.GlobalWorkerOf(id) != n*top.WorkersPerNode+w {
				return false
			}
			first := top.FirstLP(n, w)
			if id < first || int(id) >= int(first)+top.LPsPerWorker {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEPGCost(t *testing.T) {
	c := KNLDefaults()
	if c.EPGCost(10000) != 10000*c.Flop {
		t.Error("EPGCost wrong")
	}
}

func TestKNLDefaultsPositive(t *testing.T) {
	c := KNLDefaults()
	for _, v := range []int64{
		int64(c.Flop), int64(c.EventOverhead), int64(c.StateSave), int64(c.QueueOp), int64(c.LocalSend),
		int64(c.RegionalSend), int64(c.RegionalLockHold), int64(c.RemoteEnqueue),
		int64(c.InboxDrainPerMsg), int64(c.RollbackPerEvent), int64(c.FossilPerEvent),
		int64(c.GVTBookkeeping), int64(c.EffCompute), int64(c.IdlePoll), int64(c.BarrierEntry),
	} {
		if v <= 0 {
			t.Fatal("KNLDefaults has a non-positive cost")
		}
	}
}

func TestNearSquareGrid(t *testing.T) {
	for _, n := range []int{1, 2, 4, 12, 32, 128, 1024, 97} {
		w, h := NearSquareGrid(n)
		if w*h != n || w < h || h < 1 {
			t.Fatalf("grid(%d) = %dx%d", n, w, h)
		}
	}
	if w, h := NearSquareGrid(128); w != 16 || h != 8 {
		t.Fatalf("grid(128) = %dx%d, want 16x8", w, h)
	}
}

// TestTorusStep: on a 4×3 torus each direction wraps at the edges, and
// the four steps from any LP are its four neighbours.
func TestTorusStep(t *testing.T) {
	const w, h = 4, 3
	for lp, want := range map[event.LPID][4]event.LPID{
		0:  {1, 3, 4, 8},  // top-left corner: west and north wrap
		11: {8, 10, 3, 7}, // bottom-right corner: east and south wrap
		5:  {6, 4, 9, 1},
	} {
		for dir, n := range want {
			if got := TorusStep(lp, w, h, dir); got != n {
				t.Errorf("TorusStep(%d, dir %d) = %d, want %d", lp, dir, got, n)
			}
		}
	}
}
