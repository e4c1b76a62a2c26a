package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// analysisSchema identifies the Analysis document layout.
const analysisSchema = "cagvt.tracestat/3"

// TimeBucket is one virtual-time slice of a timeline.
type TimeBucket struct {
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Count int64   `json:"count"`
}

// SwitchPoint is a CA-GVT mode transition: the round where the Sync
// flag flipped relative to the previous round.
type SwitchPoint struct {
	Round   int64  `json:"round"`
	AtNanos int64  `json:"at_ns"`
	To      string `json:"to"` // "sync" or "async"
}

// DepthBucket is one rollback-depth histogram bucket (depth <= Le).
type DepthBucket struct {
	Le        int64 `json:"le"`
	Straggler int64 `json:"straggler"`
	Anti      int64 `json:"anti"`
}

// RollbackAnalysis aggregates rollback episodes.
type RollbackAnalysis struct {
	Episodes   int64         `json:"episodes"`
	Undone     int64         `json:"undone"`
	Stragglers int64         `json:"stragglers"`
	Anti       int64         `json:"anti"`
	MaxDepth   int64         `json:"max_depth"`
	MeanDepth  float64       `json:"mean_depth"`
	Depths     []DepthBucket `json:"depth_histogram"`
}

// NodeBandwidth is one node's outbound MPI traffic over simulated time.
type NodeBandwidth struct {
	Node     int          `json:"node"`
	Messages int64        `json:"messages"`
	Bytes    int64        `json:"bytes"`
	Timeline []ByteBucket `json:"timeline"`
}

// ByteBucket is one simulated-time slice of MPI traffic.
type ByteBucket struct {
	T0Nanos int64 `json:"t0_ns"`
	T1Nanos int64 `json:"t1_ns"`
	Bytes   int64 `json:"bytes"`
}

// WorkerPhases is one worker's duration-weighted phase breakdown.
type WorkerPhases struct {
	Worker       uint32 `json:"worker"`
	ProcessingNs int64  `json:"processing_ns"`
	IdleNs       int64  `json:"idle_ns"`
	BarrierNs    int64  `json:"barrier_ns"`
	GVTNs        int64  `json:"gvt_ns"`
	Transitions  int64  `json:"transitions"`
}

// FaultCount is one fault kind's occurrence count.
type FaultCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// FaultAnalysis aggregates injected faults.
type FaultAnalysis struct {
	Total   int64        `json:"total"`
	ByKind  []FaultCount `json:"by_kind"`
	FirstNs int64        `json:"first_ns"`
	LastNs  int64        `json:"last_ns"`
}

// NodeShare is one node's row of the imbalance analysis. Lag is the
// node's commit-frontier lag: at each GVT round, the new GVT minus the
// highest virtual timestamp the node has committed so far — how far the
// node's committed horizon trails the cluster's. A straggling node shows
// a persistently large lag; migrations shrink it.
type NodeShare struct {
	Node      int     `json:"node"`
	Committed int64   `json:"committed"`
	Share     float64 `json:"share"`
	MeanLag   float64 `json:"mean_lag"`
	MaxLag    float64 `json:"max_lag"`
	LPsIn     int64   `json:"lps_in"`
	LPsOut    int64   `json:"lps_out"`
}

// ImbalanceAnalysis is the per-node load picture. Node placement is
// replayed from the trace: LPs start on their block-contiguous home
// nodes (inferred from the node and LP id ranges) and follow Migration
// records, so committed-event attribution tracks the live placement.
type ImbalanceAnalysis struct {
	Nodes          []NodeShare `json:"nodes"`
	MaxShare       float64     `json:"max_share"`
	MinShare       float64     `json:"min_share"`
	Migrations     int64       `json:"migrations"`
	MigratedEvents int64       `json:"migrated_events"`
	Moves          []Migration `json:"moves,omitempty"` // in record order
}

// LPSpread summarizes committed-event counts across LPs.
type LPSpread struct {
	LPs  int     `json:"lps"`
	Min  int64   `json:"min"`
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	Max  int64   `json:"max"`
	Mean float64 `json:"mean"`
}

// NodeUtilization is one node's row of the utilization analysis: the
// fraction of observation intervals (between consecutive Round records)
// in which the node committed at least one event. A conservative node
// blocked waiting for a null-message promise or the window edge shows a
// low utilization; Time Warp nodes stay busy but may be undone later.
type NodeUtilization struct {
	Node         int     `json:"node"`
	ActiveRounds int64   `json:"active_rounds"`
	Utilization  float64 `json:"utilization"`
}

// UtilizationAnalysis is the desynchronization picture: per-node useful
// work plus the roughness of the cluster's virtual-time horizon. At each
// Round record the per-node commit frontiers (highest committed
// timestamp so far) are sampled; width is max-min across nodes and
// stddev the per-round standard deviation, both averaged over rounds. A
// smooth horizon (small width) means the nodes advance in lockstep —
// the signature of the window protocol; null messages let the horizon
// fray up to the lookahead chain.
type UtilizationAnalysis struct {
	Rounds            int64             `json:"rounds"`
	Nodes             []NodeUtilization `json:"nodes"`
	MinUtilization    float64           `json:"min_utilization"`
	MeanUtilization   float64           `json:"mean_utilization"`
	MeanHorizonWidth  float64           `json:"mean_horizon_width"`
	MeanHorizonStddev float64           `json:"mean_horizon_stddev"`
}

// Analysis is everything Analyze derives from one trace: GVT progress,
// commit-rate timeline, per-LP activity spread, the efficiency timeline
// with CA-GVT switch points, rollback-cascade depths, per-node MPI
// bandwidth, worker phases, faults and — on multi-node traces — per-node
// load imbalance and utilization. It marshals as the cmd/tracestat -json
// document.
type Analysis struct {
	Schema         string               `json:"schema"`
	TraceVersion   int                  `json:"trace_version"`
	Commits        int64                `json:"commits"`
	MaxT           float64              `json:"max_t"`
	CommitTimeline []TimeBucket         `json:"commit_timeline"`
	PerLP          *LPSpread            `json:"per_lp,omitempty"`
	Rounds         []Round              `json:"efficiency_timeline"`
	SwitchPoints   []SwitchPoint        `json:"switch_points"`
	Rollbacks      RollbackAnalysis     `json:"rollbacks"`
	MPI            []NodeBandwidth      `json:"mpi_bandwidth"`
	Phases         []WorkerPhases       `json:"phase_breakdown"`
	Faults         *FaultAnalysis       `json:"faults,omitempty"`
	Imbalance      *ImbalanceAnalysis   `json:"imbalance,omitempty"`
	Utilization    *UtilizationAnalysis `json:"utilization,omitempty"`
}

// phaseState tracks one worker's open phase interval while scanning.
type phaseState struct {
	phase uint8
	since int64
	agg   WorkerPhases
}

// imbMark remembers where a Round or Migration record sat in the record
// stream relative to the Commit records (at = commits seen before it),
// so the imbalance replay can interleave them in original order.
type imbMark struct {
	kind uint8 // markRound or markMigration
	idx  int   // index into the rounds / migrations slice
	at   int   // commit count when the record was read
}

const (
	markRound = uint8(iota)
	markMigration
)

// Analyze reads one whole trace and derives every analysis from it, with
// buckets virtual-time slices per timeline. A malformed stream returns
// the reader's error, which carries the byte offset of the failure.
func Analyze(r io.Reader, buckets int) (*Analysis, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("trace: %d timeline buckets, want at least 1", buckets)
	}
	var (
		commits    []Commit
		rounds     = []Round{}
		rollbacks  []Rollback
		sends      []MPISend
		faults     []Fault
		migrations []Migration
		marks      []imbMark
		phases     = map[uint32]*phaseState{}
		maxAt      int64
	)
	tr := NewReader(r)
	seeAt := func(at int64) { maxAt = max(maxAt, at) }
	err := tr.ForEach(Visitor{
		Commit: func(c Commit) { commits = append(commits, c) },
		Round: func(rd Round) {
			marks = append(marks, imbMark{kind: markRound, idx: len(rounds), at: len(commits)})
			rounds = append(rounds, rd)
			seeAt(rd.AtNanos)
		},
		Rollback: func(rb Rollback) {
			rollbacks = append(rollbacks, rb)
			seeAt(rb.AtNanos)
		},
		MPISend: func(m MPISend) { sends = append(sends, m); seeAt(m.AtNanos) },
		MPIRecv: func(m MPIRecv) { seeAt(m.AtNanos) },
		Fault:   func(ft Fault) { faults = append(faults, ft); seeAt(ft.AtNanos) },
		Migration: func(mg Migration) {
			marks = append(marks, imbMark{kind: markMigration, idx: len(migrations), at: len(commits)})
			migrations = append(migrations, mg)
			seeAt(mg.AtNanos)
		},
		Phase: func(p Phase) {
			st := phases[p.Worker]
			if st == nil {
				st = &phaseState{phase: p.Phase, since: p.AtNanos}
				st.agg.Worker = p.Worker
				phases[p.Worker] = st
			} else {
				st.addUntil(p.AtNanos)
				st.phase = p.Phase
				st.since = p.AtNanos
			}
			st.agg.Transitions++
			seeAt(p.AtNanos)
		},
	})
	if err != nil {
		return nil, err
	}
	version, _ := tr.version()

	a := build(version, buckets, commits, rounds, rollbacks, sends, faults, phases, maxAt)
	a.Imbalance, a.Utilization = buildPlacement(commits, rounds, migrations, marks, sends)
	return a, nil
}

// addUntil closes the worker's open phase interval at time at.
func (st *phaseState) addUntil(at int64) {
	d := max(at-st.since, 0)
	switch st.phase {
	case PhaseProcessing:
		st.agg.ProcessingNs += d
	case PhaseIdle:
		st.agg.IdleNs += d
	case PhaseBarrier:
		st.agg.BarrierNs += d
	case PhaseGVT:
		st.agg.GVTNs += d
	}
}

// bucket clamps a timeline index into [0, n): a record stamped before
// zero, or one whose index overflowed, lands in an end bucket instead of
// outside the timeline.
func bucket(i, n int) int { return min(max(i, 0), n-1) }

// build assembles every analysis but the placement replay from the
// collected records.
func build(version, buckets int, commits []Commit, rounds []Round,
	rollbacks []Rollback, sends []MPISend, faults []Fault,
	phases map[uint32]*phaseState, maxAt int64) *Analysis {

	a := &Analysis{
		Schema:         analysisSchema,
		TraceVersion:   version,
		Commits:        int64(len(commits)),
		CommitTimeline: []TimeBucket{},
		Rounds:         rounds,
		SwitchPoints:   []SwitchPoint{},
		MPI:            []NodeBandwidth{},
		Phases:         []WorkerPhases{},
	}
	a.Rollbacks.Depths = []DepthBucket{}

	// Commit timeline and per-LP spread.
	perLP := map[uint32]int64{}
	for _, c := range commits {
		if c.T > a.MaxT {
			a.MaxT = c.T
		}
		perLP[c.LP]++
	}
	if len(commits) > 0 && a.MaxT > 0 {
		hist := make([]int64, buckets)
		for _, c := range commits {
			hist[bucket(int(c.T/a.MaxT*float64(buckets)), buckets)]++
		}
		for i, h := range hist {
			a.CommitTimeline = append(a.CommitTimeline, TimeBucket{
				T0:    float64(i) * a.MaxT / float64(buckets),
				T1:    float64(i+1) * a.MaxT / float64(buckets),
				Count: h,
			})
		}
		counts := make([]int64, 0, len(perLP))
		var total int64
		for _, c := range perLP {
			counts = append(counts, c)
			total += c
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
		a.PerLP = &LPSpread{
			LPs: len(counts), Min: counts[0],
			P50: counts[len(counts)/2], P90: counts[len(counts)*9/10],
			Max: counts[len(counts)-1], Mean: float64(total) / float64(len(counts)),
		}
	}

	// CA-GVT switch points on the efficiency timeline.
	for i := 1; i < len(rounds); i++ {
		if rd := rounds[i]; rd.Sync != rounds[i-1].Sync {
			to := "async"
			if rd.Sync {
				to = "sync"
			}
			a.SwitchPoints = append(a.SwitchPoints, SwitchPoint{
				Round: rd.Round, AtNanos: rd.AtNanos, To: to,
			})
		}
	}

	// Rollback-cascade depth distribution (log2 buckets).
	const depthBuckets = 24
	var strag, anti [depthBuckets]int64
	for _, rb := range rollbacks {
		a.Rollbacks.Episodes++
		a.Rollbacks.Undone += int64(rb.Depth)
		a.Rollbacks.MaxDepth = max(a.Rollbacks.MaxDepth, int64(rb.Depth))
		i := 0
		for d := int64(rb.Depth); d > 1; d >>= 1 {
			i++
		}
		i = min(i, depthBuckets-1)
		if rb.Anti {
			a.Rollbacks.Anti++
			anti[i]++
		} else {
			a.Rollbacks.Stragglers++
			strag[i]++
		}
	}
	if a.Rollbacks.Episodes > 0 {
		a.Rollbacks.MeanDepth = float64(a.Rollbacks.Undone) / float64(a.Rollbacks.Episodes)
	}
	for i := 0; i < depthBuckets; i++ {
		if strag[i] == 0 && anti[i] == 0 {
			continue
		}
		// Bucket i holds depths in [2^i, 2^(i+1)-1].
		a.Rollbacks.Depths = append(a.Rollbacks.Depths, DepthBucket{
			Le: min(int64(1)<<(i+1)-1, a.Rollbacks.MaxDepth), Straggler: strag[i], Anti: anti[i],
		})
	}

	// Per-node MPI bandwidth timeline.
	perNode := map[int]*NodeBandwidth{}
	for _, m := range sends {
		nb := perNode[int(m.Src)]
		if nb == nil {
			nb = &NodeBandwidth{Node: int(m.Src)}
			perNode[int(m.Src)] = nb
		}
		nb.Messages++
		nb.Bytes += int64(m.Bytes)
	}
	if len(sends) > 0 && maxAt > 0 {
		for _, nb := range perNode {
			nb.Timeline = make([]ByteBucket, buckets)
			for i := range nb.Timeline {
				nb.Timeline[i] = ByteBucket{
					T0Nanos: int64(i) * maxAt / int64(buckets),
					T1Nanos: int64(i+1) * maxAt / int64(buckets),
				}
			}
		}
		for _, m := range sends {
			i := bucket(int(m.AtNanos*int64(buckets)/maxAt), buckets)
			perNode[int(m.Src)].Timeline[i].Bytes += int64(m.Bytes)
		}
	}
	nodeIDs := make([]int, 0, len(perNode))
	for id := range perNode {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)
	for _, id := range nodeIDs {
		a.MPI = append(a.MPI, *perNode[id])
	}

	// Fault summary: per-kind counts in kind order plus time span.
	if len(faults) > 0 {
		fa := &FaultAnalysis{Total: int64(len(faults)), FirstNs: faults[0].AtNanos}
		var byKind [NumFaultKinds]int64
		for _, ft := range faults {
			if int(ft.Kind) < len(byKind) {
				byKind[ft.Kind]++
			}
			fa.FirstNs = min(fa.FirstNs, ft.AtNanos)
			fa.LastNs = max(fa.LastNs, ft.AtNanos)
		}
		for k, c := range byKind {
			if c > 0 {
				fa.ByKind = append(fa.ByKind, FaultCount{Kind: FaultName(uint8(k)), Count: c})
			}
		}
		a.Faults = fa
	}

	// Worker phase breakdown: close each open interval at the last
	// simulated timestamp seen in the trace.
	workerIDs := make([]uint32, 0, len(phases))
	for id := range phases {
		workerIDs = append(workerIDs, id)
	}
	sort.Slice(workerIDs, func(i, j int) bool { return workerIDs[i] < workerIDs[j] })
	for _, id := range workerIDs {
		st := phases[id]
		st.addUntil(maxAt)
		a.Phases = append(a.Phases, st.agg)
	}
	return a
}

// buildPlacement replays the trace's committed stream once against the
// live LP placement and the Round records, for the two analyses that
// attribute commits to nodes: the per-node load picture (imbalance) and
// the desynchronization picture (utilization: how often each node does
// useful work between observations, and how ragged the cluster's
// virtual-time horizon is). The cluster shape is inferred from the
// records themselves: node count from the highest node id on MPI and
// migration records, LP count from the highest LP id, and the engine's
// block-contiguous static placement fills in each LP's home node.
// Migration records then re-home LPs mid-stream, in original record
// order. Both are nil for single-node traces — there is no between-node
// balance to analyze — and utilization also without Round records:
// there is nothing to desynchronize from.
func buildPlacement(commits []Commit, rounds []Round,
	migrations []Migration, marks []imbMark, sends []MPISend) (*ImbalanceAnalysis, *UtilizationAnalysis) {

	maxNode, maxLP := 0, 0
	for _, m := range sends {
		maxNode = max(maxNode, int(m.Src), int(m.Dst))
	}
	for _, mg := range migrations {
		maxNode = max(maxNode, int(mg.SrcNode), int(mg.DstNode))
		maxLP = max(maxLP, int(mg.LP))
	}
	nodes := maxNode + 1
	if nodes < 2 || len(commits) == 0 {
		return nil, nil
	}
	for _, c := range commits {
		maxLP = max(maxLP, int(c.LP))
	}
	lpsPerNode := (maxLP + nodes) / nodes // ceil((maxLP+1)/nodes)

	var (
		loc       = map[uint32]int{} // only LPs moved off their home node
		committed = make([]int64, nodes)
		frontier  = make([]float64, nodes) // highest committed timestamp so far
		active    = make([]bool, nodes)    // committed since the last Round record
		activeCt  = make([]int64, nodes)
		lagSum    = make([]float64, nodes)
		maxLag    = make([]float64, nodes)
		in        = make([]int64, nodes)
		out       = make([]int64, nodes)
		roundsN   int64
		widthSum  float64
		sdSum     float64
	)
	ci := 0
	attributeUntil := func(end int) {
		for ; ci < end; ci++ {
			c := commits[ci]
			n, moved := loc[c.LP]
			if !moved {
				n = min(int(c.LP)/lpsPerNode, nodes-1)
			}
			committed[n]++
			active[n] = true
			frontier[n] = max(frontier[n], c.T)
		}
	}
	for _, mk := range marks {
		attributeUntil(mk.at)
		switch mk.kind {
		case markRound:
			gvt := rounds[mk.idx].GVT
			roundsN++
			lo, hi, sum := frontier[0], frontier[0], 0.0
			for n, f := range frontier {
				lag := max(gvt-f, 0)
				lagSum[n] += lag
				maxLag[n] = max(maxLag[n], lag)
				if active[n] {
					activeCt[n]++
				}
				active[n] = false
				lo, hi = min(lo, f), max(hi, f)
				sum += f
			}
			widthSum += hi - lo
			mean := sum / float64(nodes)
			varSum := 0.0
			for _, f := range frontier {
				varSum += (f - mean) * (f - mean)
			}
			sdSum += math.Sqrt(varSum / float64(nodes))
		case markMigration:
			mg := migrations[mk.idx]
			loc[mg.LP] = int(mg.DstNode)
			out[mg.SrcNode]++
			in[mg.DstNode]++
		}
	}
	// Commits after the final Round record count toward the shares only:
	// they fall outside the observation window, which keeps every node's
	// utilization denominator the number of Round records.
	attributeUntil(len(commits))

	imb := &ImbalanceAnalysis{
		Nodes:      make([]NodeShare, 0, nodes),
		MinShare:   1,
		Migrations: int64(len(migrations)),
		Moves:      migrations,
	}
	total := int64(len(commits))
	for n := 0; n < nodes; n++ {
		s := NodeShare{
			Node: n, Committed: committed[n],
			Share:  float64(committed[n]) / float64(total),
			MaxLag: maxLag[n],
			LPsIn:  in[n], LPsOut: out[n],
		}
		if roundsN > 0 {
			s.MeanLag = lagSum[n] / float64(roundsN)
		}
		imb.MaxShare = max(imb.MaxShare, s.Share)
		imb.MinShare = min(imb.MinShare, s.Share)
		imb.Nodes = append(imb.Nodes, s)
	}
	for _, mg := range migrations {
		imb.MigratedEvents += int64(mg.Events)
	}
	if roundsN == 0 {
		return imb, nil
	}

	ut := &UtilizationAnalysis{
		Rounds:            roundsN,
		Nodes:             make([]NodeUtilization, 0, nodes),
		MinUtilization:    1,
		MeanHorizonWidth:  widthSum / float64(roundsN),
		MeanHorizonStddev: sdSum / float64(roundsN),
	}
	for n := 0; n < nodes; n++ {
		u := float64(activeCt[n]) / float64(roundsN)
		ut.Nodes = append(ut.Nodes, NodeUtilization{Node: n, ActiveRounds: activeCt[n], Utilization: u})
		ut.MinUtilization = min(ut.MinUtilization, u)
		ut.MeanUtilization += u / float64(nodes)
	}
	return imb, ut
}
