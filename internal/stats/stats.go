// Package stats defines the metrics the paper reports: committed event
// rate, simulation efficiency, rollback counts, GVT-round counts, barrier
// idle time, and the per-round LVT-disparity measure of §4 (average over
// rounds of the standard deviation of worker LVTs).
package stats

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Worker accumulates per-worker-thread counters during a run.
type Worker struct {
	Processed   int64 // events processed (including later rolled back)
	RolledBack  int64 // processed events undone by rollbacks
	Committed   int64 // events fossil-collected (never to be undone)
	Rollbacks   int64 // rollback episodes
	Stragglers  int64 // rollbacks caused by late positive messages
	AntiRollbck int64 // rollbacks caused by anti-messages
	SentLocal   int64
	SentRegion  int64
	SentRemote  int64
	AntiSent    int64
	Annihilated int64 // positive/anti pairs annihilated at this worker
	GVTRounds   int64
	SyncRounds  int64    // CA-GVT rounds executed with barriers
	BarrierWait sim.Time // virtual time parked at barriers
	IdleTime    sim.Time // virtual time in empty main-loop passes
	GVTTime     sim.Time // virtual time inside GVT protocol steps
}

// Add accumulates o into w.
func (w *Worker) Add(o *Worker) {
	w.Processed += o.Processed
	w.RolledBack += o.RolledBack
	w.Committed += o.Committed
	w.Rollbacks += o.Rollbacks
	w.Stragglers += o.Stragglers
	w.AntiRollbck += o.AntiRollbck
	w.SentLocal += o.SentLocal
	w.SentRegion += o.SentRegion
	w.SentRemote += o.SentRemote
	w.AntiSent += o.AntiSent
	w.Annihilated += o.Annihilated
	w.GVTRounds += o.GVTRounds
	w.SyncRounds += o.SyncRounds
	w.BarrierWait += o.BarrierWait
	w.IdleTime += o.IdleTime
	w.GVTTime += o.GVTTime
}

// Disparity accumulates the paper's LVT-disparity metric: at each GVT
// round, the standard deviation of worker LVTs is recorded; the reported
// number is the mean over rounds.
type Disparity struct {
	sum    float64
	rounds int64
}

// Observe records one GVT round's worker LVT sample.
func (d *Disparity) Observe(lvts []float64) {
	if len(lvts) == 0 {
		return
	}
	var mean float64
	n := 0
	for _, v := range lvts {
		if math.IsInf(v, 0) || v == math.MaxFloat64 {
			continue
		}
		mean += v
		n++
	}
	if n == 0 {
		return
	}
	mean /= float64(n)
	var ss float64
	for _, v := range lvts {
		if math.IsInf(v, 0) || v == math.MaxFloat64 {
			continue
		}
		ss += (v - mean) * (v - mean)
	}
	d.sum += math.Sqrt(ss / float64(n))
	d.rounds++
}

// Mean returns the average per-round standard deviation.
func (d *Disparity) Mean() float64 {
	if d.rounds == 0 {
		return 0
	}
	return d.sum / float64(d.rounds)
}

// Rounds returns the number of observed rounds.
func (d *Disparity) Rounds() int64 { return d.rounds }

// Run is the final result of one simulation run.
type Run struct {
	Workers     Worker   // sum over all worker threads
	WallTime    sim.Time // virtual wall-clock from start to GVT ≥ end time
	GVTRounds   int64    // completed GVT rounds (cluster-wide)
	SyncRounds  int64    // rounds CA-GVT ran synchronously (cluster-wide)
	FinalGVT    float64
	Disparity   float64 // mean per-round stddev of worker LVTs
	MPIMessages int64
	MPIBytes    int64
	// CommitChecksum is an order-sensitive FNV-1a digest of the committed
	// event stream, comparable against the sequential oracle.
	CommitChecksum uint64

	// NullMessages counts CMB null messages exchanged by the conservative
	// engine's null-message protocol (zero for Time Warp and window-sync
	// runs). Excluded from String() so optimistic summaries are unchanged.
	NullMessages int64

	// Robustness counters, all zero in fault-free runs: the reliable
	// transport's retransmission activity and the fabric's injected faults
	// by kind. They are deliberately excluded from String() so fault-free
	// summaries are unchanged.
	Retransmits      int64 // data frames re-sent after an RTO expiry
	TransportDups    int64 // received duplicate frames suppressed
	FaultDrops       int64 // packets dropped by the fault plan
	FaultDups        int64 // packets duplicated by the fault plan
	FaultJitters     int64 // packets delayed by jitter
	FaultWindowDrops int64 // packets lost in partition/degradation windows

	// Load-balancer counters, zero unless a migrating balance policy is
	// active. Excluded from String() so static-policy summaries are
	// byte-identical to pre-balancer output.
	Migrations     int64 // LPs moved between nodes at GVT commit points
	MigratedEvents int64 // pending events shipped along with the moves

	// Event-pool counters; both engines recycle events through per-node
	// pools. The counts are deterministic for a given configuration:
	// PoolNews counts events allocated fresh because a node's free list was
	// empty, PoolRecycled counts allocations served from a free list.
	// Excluded from String().
	PoolNews     int64
	PoolRecycled int64

	// Kernel is what the sim kernel dispatched during the run, the host
	// cost's deterministic proxy (dispatches per committed event).
	// Excluded from String() and, so far, from the report.
	Kernel sim.Counters
}

// Efficiency returns committed / processed (the paper's committed over
// total generated; every processed event was generated).
func (r *Run) Efficiency() float64 {
	if r.Workers.Processed == 0 {
		return 1
	}
	return float64(r.Workers.Committed) / float64(r.Workers.Processed)
}

// EventRate returns committed events per virtual second.
func (r *Run) EventRate() float64 {
	secs := r.WallTime.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Workers.Committed) / secs
}

// String renders a compact human-readable summary.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "committed=%d processed=%d rolled-back=%d rollbacks=%d\n",
		r.Workers.Committed, r.Workers.Processed, r.Workers.RolledBack, r.Workers.Rollbacks)
	fmt.Fprintf(&b, "efficiency=%.2f%% rate=%.3g ev/s wall=%v gvt-rounds=%d sync-rounds=%d\n",
		100*r.Efficiency(), r.EventRate(), r.WallTime, r.GVTRounds, r.SyncRounds)
	fmt.Fprintf(&b, "sent: local=%d regional=%d remote=%d anti=%d annihilated=%d\n",
		r.Workers.SentLocal, r.Workers.SentRegion, r.Workers.SentRemote, r.Workers.AntiSent, r.Workers.Annihilated)
	fmt.Fprintf(&b, "barrier-wait=%v idle=%v disparity=%.4g mpi-msgs=%d final-gvt=%.6g",
		r.Workers.BarrierWait, r.Workers.IdleTime, r.Disparity, r.MPIMessages, r.FinalGVT)
	return b.String()
}

// Checksum is an order-sensitive FNV-1a accumulator over committed events,
// shared by the parallel engine and the sequential oracle.
type Checksum uint64

// NewChecksum returns the FNV-1a offset basis.
func NewChecksum() Checksum { return 0xcbf29ce484222325 }

const fnvPrime = 0x100000001b3

// Mix folds one committed event into the digest.
func (c Checksum) Mix(lp uint32, t float64, src uint32, seq uint64) Checksum {
	h := uint64(c)
	for _, v := range [4]uint64{uint64(lp), math.Float64bits(t), uint64(src), seq} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return Checksum(h)
}
