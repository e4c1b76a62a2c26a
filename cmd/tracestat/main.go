// Command tracestat analyzes a binary run trace produced with
// `phold -traceout` (or any engine run with a trace writer): GVT
// progress, commit-rate timeline, per-LP activity spread, efficiency
// timeline with CA-GVT switch points, rollback-cascade depth
// distribution, per-node MPI bandwidth timeline, worker phase
// breakdown, and — on multi-node traces — per-node load imbalance
// (committed-event share, commit-frontier lag) with LP migrations.
//
//	go run ./cmd/phold -gvt ca -scenario mixed -traceout run.trace
//	go run ./cmd/tracestat run.trace
//	go run ./cmd/tracestat -json run.trace > analysis.json
//
// Malformed traces exit with status 1 and the byte offset of the
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Schema identifies the -json document layout.
const Schema = "cagvt.tracestat/3"

// timeBucket is one virtual-time slice of a timeline.
type timeBucket struct {
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Count int64   `json:"count"`
}

// roundPoint is one GVT round on the efficiency timeline.
type roundPoint struct {
	Round      int64   `json:"round"`
	GVT        float64 `json:"gvt"`
	AtNanos    int64   `json:"at_ns"`
	Sync       bool    `json:"sync"`
	Efficiency float64 `json:"efficiency"`
}

// switchPoint is a CA-GVT mode transition: the round where the Sync
// flag flipped relative to the previous round.
type switchPoint struct {
	Round   int64  `json:"round"`
	AtNanos int64  `json:"at_ns"`
	To      string `json:"to"` // "sync" or "async"
}

// depthBucket is one rollback-depth histogram bucket (depth <= Le).
type depthBucket struct {
	Le        int64 `json:"le"`
	Straggler int64 `json:"straggler"`
	Anti      int64 `json:"anti"`
}

// rollbackAnalysis aggregates rollback episodes.
type rollbackAnalysis struct {
	Episodes   int64         `json:"episodes"`
	Undone     int64         `json:"undone"`
	Stragglers int64         `json:"stragglers"`
	Anti       int64         `json:"anti"`
	MaxDepth   int64         `json:"max_depth"`
	MeanDepth  float64       `json:"mean_depth"`
	Depths     []depthBucket `json:"depth_histogram"`
}

// nodeBandwidth is one node's outbound MPI traffic over simulated time.
type nodeBandwidth struct {
	Node     int          `json:"node"`
	Messages int64        `json:"messages"`
	Bytes    int64        `json:"bytes"`
	Timeline []byteBucket `json:"timeline"`
}

// byteBucket is one simulated-time slice of MPI traffic.
type byteBucket struct {
	T0Nanos int64 `json:"t0_ns"`
	T1Nanos int64 `json:"t1_ns"`
	Bytes   int64 `json:"bytes"`
}

// workerPhases is one worker's duration-weighted phase breakdown.
type workerPhases struct {
	Worker       uint32 `json:"worker"`
	ProcessingNs int64  `json:"processing_ns"`
	IdleNs       int64  `json:"idle_ns"`
	BarrierNs    int64  `json:"barrier_ns"`
	GVTNs        int64  `json:"gvt_ns"`
	Transitions  int64  `json:"transitions"`
}

// faultCount is one fault kind's occurrence count.
type faultCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// faultAnalysis aggregates injected faults and watchdog reactions.
type faultAnalysis struct {
	Total   int64        `json:"total"`
	ByKind  []faultCount `json:"by_kind"`
	FirstNs int64        `json:"first_ns"`
	LastNs  int64        `json:"last_ns"`
}

// nodeShare is one node's row of the imbalance analysis. Lag is the
// node's commit-frontier lag: at each GVT round, the new GVT minus the
// highest virtual timestamp the node has committed so far — how far the
// node's committed horizon trails the cluster's. A straggling node shows
// a persistently large lag; migrations shrink it.
type nodeShare struct {
	Node      int     `json:"node"`
	Committed int64   `json:"committed"`
	Share     float64 `json:"share"`
	MeanLag   float64 `json:"mean_lag"`
	MaxLag    float64 `json:"max_lag"`
	LPsIn     int64   `json:"lps_in"`
	LPsOut    int64   `json:"lps_out"`
}

// migrationPoint is one LP migration in commit order.
type migrationPoint struct {
	LP      uint32 `json:"lp"`
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Round   int64  `json:"round"`
	Events  uint32 `json:"events"`
	AtNanos int64  `json:"at_ns"`
}

// imbalanceAnalysis is the per-node load picture. Node placement is
// replayed from the trace: LPs start on their block-contiguous home
// nodes (inferred from the node and LP id ranges) and follow Migration
// records, so committed-event attribution tracks the live placement.
type imbalanceAnalysis struct {
	Nodes          []nodeShare      `json:"nodes"`
	MaxShare       float64          `json:"max_share"`
	MinShare       float64          `json:"min_share"`
	Migrations     int64            `json:"migrations"`
	MigratedEvents int64            `json:"migrated_events"`
	Moves          []migrationPoint `json:"moves,omitempty"`
}

// perLPSpread summarizes committed-event counts across LPs.
type perLPSpread struct {
	LPs  int     `json:"lps"`
	Min  int64   `json:"min"`
	P50  int64   `json:"p50"`
	P90  int64   `json:"p90"`
	Max  int64   `json:"max"`
	Mean float64 `json:"mean"`
}

// nodeUtilization is one node's row of the utilization analysis: the
// fraction of observation intervals (between consecutive Round records)
// in which the node committed at least one event. A conservative node
// blocked waiting for a null-message promise or the window edge shows a
// low utilization; Time Warp nodes stay busy but may be undone later.
type nodeUtilization struct {
	Node         int     `json:"node"`
	ActiveRounds int64   `json:"active_rounds"`
	Utilization  float64 `json:"utilization"`
}

// utilizationAnalysis is the desynchronization picture: per-node useful
// work plus the roughness of the cluster's virtual-time horizon. At each
// Round record the per-node commit frontiers (highest committed
// timestamp so far) are sampled; width is max-min across nodes and
// stddev the per-round standard deviation, both averaged over rounds. A
// smooth horizon (small width) means the nodes advance in lockstep —
// the signature of the window protocol; null messages let the horizon
// fray up to the lookahead chain.
type utilizationAnalysis struct {
	Rounds            int64             `json:"rounds"`
	Nodes             []nodeUtilization `json:"nodes"`
	MinUtilization    float64           `json:"min_utilization"`
	MeanUtilization   float64           `json:"mean_utilization"`
	MeanHorizonWidth  float64           `json:"mean_horizon_width"`
	MeanHorizonStddev float64           `json:"mean_horizon_stddev"`
}

// analysis is the whole -json document.
type analysis struct {
	Schema         string               `json:"schema"`
	TraceVersion   int                  `json:"trace_version"`
	Commits        int64                `json:"commits"`
	MaxT           float64              `json:"max_t"`
	CommitTimeline []timeBucket         `json:"commit_timeline"`
	PerLP          *perLPSpread         `json:"per_lp,omitempty"`
	Rounds         []roundPoint         `json:"efficiency_timeline"`
	SwitchPoints   []switchPoint        `json:"switch_points"`
	Rollbacks      rollbackAnalysis     `json:"rollbacks"`
	MPI            []nodeBandwidth      `json:"mpi_bandwidth"`
	Phases         []workerPhases       `json:"phase_breakdown"`
	Faults         *faultAnalysis       `json:"faults,omitempty"`
	Imbalance      *imbalanceAnalysis   `json:"imbalance,omitempty"`
	Utilization    *utilizationAnalysis `json:"utilization,omitempty"`
}

// phaseState tracks one worker's open phase interval while scanning.
type phaseState struct {
	phase uint8
	since int64
	agg   workerPhases
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

func main() {
	buckets := flag.Int("buckets", 20, "timeline resolution (virtual-time buckets)")
	asJSON := flag.Bool("json", false, "emit the analyses as one JSON document")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-buckets n] [-json] <trace-file>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	a, err := analyze(f, *buckets)
	if err != nil {
		// The reader's errors carry the byte offset of the failure.
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	render(a)
}

// analyze reads one binary trace and assembles the full -json document.
func analyze(f io.Reader, buckets int) (*analysis, error) {
	var (
		commits    []trace.Commit
		rounds     []trace.Round
		rollbacks  []trace.Rollback
		sends      []trace.MPISend
		faults     []trace.Fault
		migrations []trace.Migration
		marks      []imbMark
		phases     = map[uint32]*phaseState{}
		maxAt      int64
	)
	r := trace.NewReader(f)
	seeAt := func(at int64) {
		if at > maxAt {
			maxAt = at
		}
	}
	err := r.ForEach(trace.Visitor{
		Commit: func(c trace.Commit) { commits = append(commits, c) },
		Round: func(rd trace.Round) {
			marks = append(marks, imbMark{kind: markRound, idx: len(rounds), at: len(commits)})
			rounds = append(rounds, rd)
			seeAt(rd.AtNanos)
		},
		Rollback: func(rb trace.Rollback) {
			rollbacks = append(rollbacks, rb)
			seeAt(rb.AtNanos)
		},
		MPISend: func(m trace.MPISend) { sends = append(sends, m); seeAt(m.AtNanos) },
		MPIRecv: func(m trace.MPIRecv) { seeAt(m.AtNanos) },
		Fault:   func(ft trace.Fault) { faults = append(faults, ft); seeAt(ft.AtNanos) },
		Migration: func(mg trace.Migration) {
			marks = append(marks, imbMark{kind: markMigration, idx: len(migrations), at: len(commits)})
			migrations = append(migrations, mg)
			seeAt(mg.AtNanos)
		},
		Phase: func(p trace.Phase) {
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
	version, _ := r.Version()

	a := build(version, buckets, commits, rounds, rollbacks, sends, faults, phases, maxAt)
	a.Imbalance, a.Utilization = buildPlacement(commits, rounds, migrations, marks, sends)
	return a, nil
}

// addUntil closes the worker's open phase interval at time at.
func (st *phaseState) addUntil(at int64) {
	d := at - st.since
	if d < 0 {
		d = 0
	}
	switch st.phase {
	case trace.PhaseProcessing:
		st.agg.ProcessingNs += d
	case trace.PhaseIdle:
		st.agg.IdleNs += d
	case trace.PhaseBarrier:
		st.agg.BarrierNs += d
	case trace.PhaseGVT:
		st.agg.GVTNs += d
	}
}

// build assembles every analysis from the collected records.
func build(version, buckets int, commits []trace.Commit, rounds []trace.Round,
	rollbacks []trace.Rollback, sends []trace.MPISend, faults []trace.Fault,
	phases map[uint32]*phaseState, maxAt int64) *analysis {

	a := &analysis{
		Schema:         Schema,
		TraceVersion:   version,
		Commits:        int64(len(commits)),
		CommitTimeline: []timeBucket{},
		Rounds:         []roundPoint{},
		SwitchPoints:   []switchPoint{},
		MPI:            []nodeBandwidth{},
		Phases:         []workerPhases{},
	}
	a.Rollbacks.Depths = []depthBucket{}

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
			i := int(c.T / a.MaxT * float64(buckets))
			if i >= buckets {
				i = buckets - 1
			}
			hist[i]++
		}
		for i, h := range hist {
			a.CommitTimeline = append(a.CommitTimeline, timeBucket{
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
		a.PerLP = &perLPSpread{
			LPs: len(counts), Min: counts[0],
			P50: counts[len(counts)/2], P90: counts[len(counts)*9/10],
			Max: counts[len(counts)-1], Mean: float64(total) / float64(len(counts)),
		}
	}

	// Efficiency timeline + CA-GVT switch points.
	for i, rd := range rounds {
		a.Rounds = append(a.Rounds, roundPoint{
			Round: rd.Round, GVT: rd.GVT, AtNanos: rd.AtNanos,
			Sync: rd.Sync, Efficiency: rd.Efficiency,
		})
		if i > 0 && rd.Sync != rounds[i-1].Sync {
			to := "async"
			if rd.Sync {
				to = "sync"
			}
			a.SwitchPoints = append(a.SwitchPoints, switchPoint{
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
		if int64(rb.Depth) > a.Rollbacks.MaxDepth {
			a.Rollbacks.MaxDepth = int64(rb.Depth)
		}
		i := 0
		for d := int64(rb.Depth); d > 1; d >>= 1 {
			i++
		}
		if i >= depthBuckets {
			i = depthBuckets - 1
		}
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
		le := int64(1)<<(i+1) - 1
		if le > a.Rollbacks.MaxDepth {
			le = a.Rollbacks.MaxDepth
		}
		a.Rollbacks.Depths = append(a.Rollbacks.Depths, depthBucket{
			Le: le, Straggler: strag[i], Anti: anti[i],
		})
	}

	// Per-node MPI bandwidth timeline.
	perNode := map[int]*nodeBandwidth{}
	for _, m := range sends {
		nb := perNode[int(m.Src)]
		if nb == nil {
			nb = &nodeBandwidth{Node: int(m.Src)}
			perNode[int(m.Src)] = nb
		}
		nb.Messages++
		nb.Bytes += int64(m.Bytes)
	}
	if len(sends) > 0 && maxAt > 0 {
		for _, nb := range perNode {
			nb.Timeline = make([]byteBucket, buckets)
			for i := range nb.Timeline {
				nb.Timeline[i] = byteBucket{
					T0Nanos: int64(i) * maxAt / int64(buckets),
					T1Nanos: int64(i+1) * maxAt / int64(buckets),
				}
			}
		}
		for _, m := range sends {
			i := int(m.AtNanos * int64(buckets) / maxAt)
			if i >= buckets {
				i = buckets - 1
			}
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
		fa := &faultAnalysis{Total: int64(len(faults)), FirstNs: faults[0].AtNanos}
		var byKind [trace.NumFaultKinds]int64
		for _, ft := range faults {
			if int(ft.Kind) < len(byKind) {
				byKind[ft.Kind]++
			}
			if ft.AtNanos < fa.FirstNs {
				fa.FirstNs = ft.AtNanos
			}
			if ft.AtNanos > fa.LastNs {
				fa.LastNs = ft.AtNanos
			}
		}
		for k, c := range byKind {
			if c > 0 {
				fa.ByKind = append(fa.ByKind, faultCount{Kind: trace.FaultName(uint8(k)), Count: c})
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
		st.since = maxAt
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
func buildPlacement(commits []trace.Commit, rounds []trace.Round,
	migrations []trace.Migration, marks []imbMark, sends []trace.MPISend) (*imbalanceAnalysis, *utilizationAnalysis) {

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

	imb := &imbalanceAnalysis{Nodes: make([]nodeShare, 0, nodes), MinShare: 1}
	total := int64(len(commits))
	for n := 0; n < nodes; n++ {
		s := nodeShare{
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
		imb.Migrations++
		imb.MigratedEvents += int64(mg.Events)
		imb.Moves = append(imb.Moves, migrationPoint{
			LP: mg.LP, Src: int(mg.SrcNode), Dst: int(mg.DstNode),
			Round: mg.Round, Events: mg.Events, AtNanos: mg.AtNanos,
		})
	}
	if roundsN == 0 {
		return imb, nil
	}

	ut := &utilizationAnalysis{
		Rounds:            roundsN,
		Nodes:             make([]nodeUtilization, 0, nodes),
		MinUtilization:    1,
		MeanHorizonWidth:  widthSum / float64(roundsN),
		MeanHorizonStddev: sdSum / float64(roundsN),
	}
	for n := 0; n < nodes; n++ {
		u := float64(activeCt[n]) / float64(roundsN)
		ut.Nodes = append(ut.Nodes, nodeUtilization{Node: n, ActiveRounds: activeCt[n], Utilization: u})
		ut.MinUtilization = min(ut.MinUtilization, u)
		ut.MeanUtilization += u / float64(nodes)
	}
	return imb, ut
}

// render prints the human-readable report.
func render(a *analysis) {
	fmt.Printf("trace: format v%d, %d committed events, %d GVT rounds, virtual time span [0, %.4g]\n",
		a.TraceVersion, a.Commits, len(a.Rounds), a.MaxT)

	if len(a.CommitTimeline) > 0 {
		fmt.Println("\ncommit timeline (virtual time buckets):")
		var peak int64
		for _, b := range a.CommitTimeline {
			if b.Count > peak {
				peak = b.Count
			}
		}
		for _, b := range a.CommitTimeline {
			bar := ""
			if peak > 0 {
				bar = strings.Repeat("#", int(b.Count*50/peak))
			}
			fmt.Printf("  [%6.4g, %6.4g) %7d %s\n", b.T0, b.T1, b.Count, bar)
		}
	}
	if a.PerLP != nil {
		fmt.Printf("\nper-LP committed events: min=%d p50=%d p90=%d max=%d mean=%.1f\n",
			a.PerLP.Min, a.PerLP.P50, a.PerLP.P90, a.PerLP.Max, a.PerLP.Mean)
	}

	if len(a.Rounds) > 0 {
		sync := 0
		for _, rd := range a.Rounds {
			if rd.Sync {
				sync++
			}
		}
		last := a.Rounds[len(a.Rounds)-1]
		fmt.Printf("\nefficiency timeline: %d rounds (%d synchronous), final GVT %.6g at %.3fms virtual\n",
			len(a.Rounds), sync, last.GVT, float64(last.AtNanos)/1e6)
		stride := len(a.Rounds)/10 + 1
		for i := 0; i < len(a.Rounds); i += stride {
			rd := a.Rounds[i]
			mode := "async"
			if rd.Sync {
				mode = "SYNC"
			}
			fmt.Printf("  round %4d: gvt=%-10.4g eff=%5.1f%% %s\n",
				rd.Round, rd.GVT, 100*rd.Efficiency, mode)
		}
	}
	if len(a.SwitchPoints) > 0 {
		fmt.Printf("\nCA-GVT switch points (%d):\n", len(a.SwitchPoints))
		for _, sp := range a.SwitchPoints {
			fmt.Printf("  round %4d at %9.3fms: -> %s\n", sp.Round, float64(sp.AtNanos)/1e6, sp.To)
		}
	}

	if a.Rollbacks.Episodes > 0 {
		rb := &a.Rollbacks
		fmt.Printf("\nrollback cascades: %d episodes (%d straggler, %d anti), %d events undone, depth mean=%.1f max=%d\n",
			rb.Episodes, rb.Stragglers, rb.Anti, rb.Undone, rb.MeanDepth, rb.MaxDepth)
		fmt.Println("  depth distribution (episodes with depth <= N):")
		for _, b := range rb.Depths {
			fmt.Printf("    <=%6d: %6d straggler, %6d anti\n", b.Le, b.Straggler, b.Anti)
		}
	}

	if a.Faults != nil {
		fmt.Printf("\nfaults: %d injected/observed over [%.3f, %.3f]ms virtual\n",
			a.Faults.Total, float64(a.Faults.FirstNs)/1e6, float64(a.Faults.LastNs)/1e6)
		for _, fc := range a.Faults.ByKind {
			fmt.Printf("  %-18s %7d\n", fc.Kind, fc.Count)
		}
	}

	if len(a.MPI) > 0 {
		fmt.Println("\nper-node MPI bandwidth (outbound data plane):")
		for _, nb := range a.MPI {
			fmt.Printf("  node %2d: %d msgs, %d bytes\n", nb.Node, nb.Messages, nb.Bytes)
			if len(nb.Timeline) > 0 {
				var peak int64
				for _, b := range nb.Timeline {
					if b.Bytes > peak {
						peak = b.Bytes
					}
				}
				for _, b := range nb.Timeline {
					if b.Bytes == 0 {
						continue
					}
					fmt.Printf("    [%8.3f, %8.3f)ms %9d B %s\n",
						float64(b.T0Nanos)/1e6, float64(b.T1Nanos)/1e6, b.Bytes,
						strings.Repeat("#", int(b.Bytes*40/peak)))
				}
			}
		}
	}

	if a.Imbalance != nil {
		im := a.Imbalance
		fmt.Printf("\nper-node load imbalance (share spread %.1f%%..%.1f%%):\n",
			100*im.MinShare, 100*im.MaxShare)
		fmt.Println("  node  committed   share   mean-lag    max-lag  lps-in  lps-out")
		for _, n := range im.Nodes {
			fmt.Printf("  %4d  %9d  %5.1f%%  %9.4g  %9.4g  %6d  %7d\n",
				n.Node, n.Committed, 100*n.Share, n.MeanLag, n.MaxLag, n.LPsIn, n.LPsOut)
		}
		if im.Migrations > 0 {
			fmt.Printf("  migrations: %d LPs moved, %d pending events shipped\n",
				im.Migrations, im.MigratedEvents)
			for _, mv := range im.Moves {
				fmt.Printf("    round %4d at %9.3fms: LP %4d node %d -> %d (%d events)\n",
					mv.Round, float64(mv.AtNanos)/1e6, mv.LP, mv.Src, mv.Dst, mv.Events)
			}
		} else {
			fmt.Println("  migrations: none")
		}
	}

	if a.Utilization != nil {
		ut := a.Utilization
		fmt.Printf("\nper-node utilization over %d observation rounds (min %.1f%%, mean %.1f%%):\n",
			ut.Rounds, 100*ut.MinUtilization, 100*ut.MeanUtilization)
		fmt.Println("  node  active-rounds  utilization")
		for _, n := range ut.Nodes {
			fmt.Printf("  %4d  %13d  %10.1f%%\n", n.Node, n.ActiveRounds, 100*n.Utilization)
		}
		fmt.Printf("  horizon roughness: mean width %.4g, mean stddev %.4g (virtual time)\n",
			ut.MeanHorizonWidth, ut.MeanHorizonStddev)
	}

	if len(a.Phases) > 0 {
		fmt.Println("\nworker phase breakdown (virtual time):")
		fmt.Println("  worker  processing      idle   barrier       gvt")
		for _, ph := range a.Phases {
			total := ph.ProcessingNs + ph.IdleNs + ph.BarrierNs + ph.GVTNs
			if total == 0 {
				total = 1
			}
			fmt.Printf("  %6d  %9.1f%% %8.1f%% %8.1f%% %8.1f%%\n", ph.Worker,
				100*float64(ph.ProcessingNs)/float64(total),
				100*float64(ph.IdleNs)/float64(total),
				100*float64(ph.BarrierNs)/float64(total),
				100*float64(ph.GVTNs)/float64(total))
		}
	}
}
