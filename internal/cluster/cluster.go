// Package cluster describes the simulated machine: how many nodes, how
// many worker threads per node, how LPs map onto workers (the paper's
// placement: consecutive blocks of LPs per thread, consecutive blocks of
// threads per node), and the per-operation CPU cost model of a KNL-class
// core that the Time Warp engine charges against virtual time.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/event"
	"repro/internal/sim"
)

// Topology is the static shape of the simulated cluster.
type Topology struct {
	Nodes          int // cluster nodes (MPI ranks)
	WorkersPerNode int // simulation threads per node (paper: 60)
	LPsPerWorker   int // logical processes per thread (paper: 128)
}

// maxLPs is how many LPs event.LPID, a uint32, can address.
const maxLPs = 1 << 32

// Validate checks the topology for sanity: every count positive, and the
// worker and LP totals products that neither overflow an int nor, for
// LPs, pass what event.LPID can address.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.WorkersPerNode <= 0 || t.LPsPerWorker <= 0 {
		return fmt.Errorf("cluster: non-positive topology %+v", t)
	}
	if t.WorkersPerNode > math.MaxInt/t.Nodes || t.LPsPerWorker > math.MaxInt/t.TotalWorkers() ||
		uint64(t.TotalLPs()) > maxLPs {
		return fmt.Errorf("cluster: topology %+v has more than %d LPs", t, uint64(maxLPs))
	}
	return nil
}

// TotalWorkers returns the number of worker threads in the cluster.
func (t Topology) TotalWorkers() int { return t.Nodes * t.WorkersPerNode }

// TotalLPs returns the number of LPs in the cluster.
func (t Topology) TotalLPs() int { return t.TotalWorkers() * t.LPsPerWorker }

// NodeOf returns the node hosting lp.
func (t Topology) NodeOf(lp event.LPID) int {
	return int(lp) / (t.WorkersPerNode * t.LPsPerWorker)
}

// WorkerOf returns (node, worker-within-node) hosting lp.
func (t Topology) WorkerOf(lp event.LPID) (node, worker int) {
	w := int(lp) / t.LPsPerWorker
	return w / t.WorkersPerNode, w % t.WorkersPerNode
}

// GlobalWorkerOf returns the cluster-wide worker index hosting lp.
func (t Topology) GlobalWorkerOf(lp event.LPID) int {
	return int(lp) / t.LPsPerWorker
}

// FirstLP returns the first LP of (node, worker).
func (t Topology) FirstLP(node, worker int) event.LPID {
	return event.LPID((node*t.WorkersPerNode + worker) * t.LPsPerWorker)
}

// Class returns the locality class of a message from src to dst.
func (t Topology) Class(src, dst event.LPID) event.Class {
	if src == dst {
		return event.Local
	}
	sn, sw := t.WorkerOf(src)
	dn, dw := t.WorkerOf(dst)
	if sn != dn {
		return event.Remote
	}
	if sw != dw {
		return event.Regional
	}
	// Same worker, different LP: still intra-thread, no interconnect.
	return event.Local
}

// CostModel is the per-operation CPU cost model for a simulated worker
// thread, calibrated to a ~1.3 GHz KNL core. Every cost is charged as
// virtual time via sim.Proc.Advance.
type CostModel struct {
	// Flop is the time of one EPG work unit ("approximately one FLOP",
	// paper §2). KNL scalar FLOP at 1.3 GHz ≈ 0.77 ns; we round to 1 ns.
	Flop sim.Time
	// EventOverhead is the fixed bookkeeping per processed event (queue
	// pop, history append, scheduling the next event).
	EventOverhead sim.Time
	// StateSave is the cost of one LP state snapshot (charged per
	// checkpoint; see core.Config.CheckpointInterval).
	StateSave sim.Time
	// QueueOp is one pending-set push or annihilation probe.
	QueueOp sim.Time
	// LocalSend is an LP sending to itself (no interconnect).
	LocalSend sim.Time
	// RegionalSend is the shared-memory + lock path to another core.
	RegionalSend sim.Time
	// RegionalLockHold is the critical-section entry cost of a mailbox.
	RegionalLockHold sim.Time
	// RemoteEnqueue is writing a remote message into the node's global
	// outbound structure (read later by the MPI thread).
	RemoteEnqueue sim.Time
	// InboxDrainPerMsg is consuming one message from the worker's mailbox.
	InboxDrainPerMsg sim.Time
	// RollbackPerEvent is undoing one processed event (state restore +
	// anti-message generation).
	RollbackPerEvent sim.Time
	// FossilPerEvent is freeing one committed history entry.
	FossilPerEvent sim.Time
	// GVTBookkeeping is one update of GVT counters / control message.
	GVTBookkeeping sim.Time
	// EffCompute is CA-GVT's per-round efficiency computation (Algorithm 3
	// line 31) — the overhead that makes CA-GVT trail pure Mattern by a few
	// percent on computation-dominated models (paper §6).
	EffCompute sim.Time
	// IdlePoll is one pass of a worker's main loop that found nothing to
	// do (prevents zero-time spinning and models the polling cost).
	IdlePoll sim.Time
	// BarrierEntry is the CPU cost of one pthread-barrier entry.
	BarrierEntry sim.Time
	// MigratePack is serializing one LP for migration (state snapshot +
	// RNG stream + routing update) at a GVT commit point.
	MigratePack sim.Time
	// MigratePerEvent is packing or installing one pending event carried
	// along with a migrating LP.
	MigratePerEvent sim.Time
	// MigrateInstall is deserializing and installing one migrated LP at
	// its destination worker.
	MigrateInstall sim.Time
}

// KNLDefaults returns the calibrated default cost model.
func KNLDefaults() CostModel {
	return CostModel{
		Flop:             1 * sim.Nanosecond,
		EventOverhead:    300 * sim.Nanosecond,
		StateSave:        200 * sim.Nanosecond,
		QueueOp:          150 * sim.Nanosecond,
		LocalSend:        100 * sim.Nanosecond,
		RegionalSend:     250 * sim.Nanosecond,
		RegionalLockHold: 120 * sim.Nanosecond,
		RemoteEnqueue:    250 * sim.Nanosecond,
		InboxDrainPerMsg: 120 * sim.Nanosecond,
		RollbackPerEvent: 450 * sim.Nanosecond,
		FossilPerEvent:   60 * sim.Nanosecond,
		GVTBookkeeping:   200 * sim.Nanosecond,
		EffCompute:       1500 * sim.Nanosecond,
		IdlePoll:         150 * sim.Nanosecond,
		BarrierEntry:     300 * sim.Nanosecond,
		MigratePack:      2000 * sim.Nanosecond,
		MigratePerEvent:  150 * sim.Nanosecond,
		MigrateInstall:   2000 * sim.Nanosecond,
	}
}

// EPGCost returns the virtual CPU time of processing one event with the
// given event processing granularity.
func (c CostModel) EPGCost(epg int) sim.Time {
	return sim.Time(epg) * c.Flop
}

// Scaled returns the cost model with every per-operation cost multiplied
// by f — a straggler node whose cores run f times slower. f == 1 returns
// the receiver unchanged (bit-identical, no float rounding).
func (c CostModel) Scaled(f float64) CostModel {
	if f == 1 {
		return c
	}
	scale := func(t sim.Time) sim.Time { return sim.Time(float64(t) * f) }
	c.Flop = scale(c.Flop)
	c.EventOverhead = scale(c.EventOverhead)
	c.StateSave = scale(c.StateSave)
	c.QueueOp = scale(c.QueueOp)
	c.LocalSend = scale(c.LocalSend)
	c.RegionalSend = scale(c.RegionalSend)
	c.RegionalLockHold = scale(c.RegionalLockHold)
	c.RemoteEnqueue = scale(c.RemoteEnqueue)
	c.InboxDrainPerMsg = scale(c.InboxDrainPerMsg)
	c.RollbackPerEvent = scale(c.RollbackPerEvent)
	c.FossilPerEvent = scale(c.FossilPerEvent)
	c.GVTBookkeeping = scale(c.GVTBookkeeping)
	c.EffCompute = scale(c.EffCompute)
	c.IdlePoll = scale(c.IdlePoll)
	c.BarrierEntry = scale(c.BarrierEntry)
	c.MigratePack = scale(c.MigratePack)
	c.MigratePerEvent = scale(c.MigratePerEvent)
	c.MigrateInstall = scale(c.MigrateInstall)
	return c
}

// NearSquareGrid factors n into the most-square w×h with w >= h, for
// grid-structured models (pcs, epidemic) laid over a topology's LPs.
func NearSquareGrid(n int) (w, h int) {
	for d := int(math.Sqrt(float64(n))); d >= 1; d-- {
		if n%d == 0 {
			return n / d, d
		}
	}
	return n, 1
}
