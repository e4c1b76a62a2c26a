package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// ReportSchema identifies the run-report JSON layout. Bump on breaking
// changes so downstream tooling can detect documents it cannot parse.
const ReportSchema = "cagvt.run-report/1"

// RunConfig is the configuration block of a run report.
type RunConfig struct {
	// Label is free-form caller context ("fig8/CA-GVT/8 nodes",
	// "phold/mixed"); the engine leaves it empty.
	Label string `json:"label,omitempty"`
	// Engine identifies the simulation paradigm: "" (Time Warp, the
	// original engine — omitted so optimistic reports keep their byte
	// layout) or "conservative". Sync is the conservative sync protocol
	// ("nullmsg" | "window") and Lookahead its safety bound; both are
	// empty/zero for Time Warp runs.
	Engine             string  `json:"engine,omitempty"`
	Sync               string  `json:"sync,omitempty"`
	Lookahead          float64 `json:"lookahead,omitempty"`
	Nodes              int     `json:"nodes"`
	WorkersPerNode     int     `json:"workers_per_node"`
	LPsPerWorker       int     `json:"lps_per_worker"`
	GVT                string  `json:"gvt,omitempty"`
	Comm               string  `json:"comm"`
	GVTInterval        int     `json:"gvt_interval,omitempty"`
	CAThreshold        float64 `json:"ca_threshold,omitempty"`
	EndTime            float64 `json:"end_time"`
	Seed               uint64  `json:"seed"`
	QueueKind          string  `json:"queue"`
	BatchSize          int     `json:"batch_size"`
	CheckpointInterval int     `json:"checkpoint_interval,omitempty"`
	MaxUncommitted     int     `json:"max_uncommitted,omitempty"`
	// Faults names the fault scenario the run executed under ("" for a
	// perfect fabric; omitted from the JSON so fault-free reports are
	// byte-identical to pre-fault-injection ones).
	Faults string `json:"faults,omitempty"`
	// Balance names the LP load-balancing policy ("" for the static
	// no-balancer path; omitted so static reports keep their byte layout).
	Balance string `json:"balance,omitempty"`
}

// RunStats is the final-aggregate block of a run report (the same
// numbers stats.Run carries, in JSON-stable form: virtual times as
// nanosecond integers, the checksum as a hex string).
type RunStats struct {
	WallNanos     int64   `json:"wall_ns"`
	Committed     int64   `json:"committed"`
	Processed     int64   `json:"processed"`
	RolledBack    int64   `json:"rolled_back"`
	Rollbacks     int64   `json:"rollbacks"`
	Stragglers    int64   `json:"stragglers"`
	AntiRollbacks int64   `json:"anti_rollbacks"`
	Efficiency    float64 `json:"efficiency"`
	EventRate     float64 `json:"event_rate"`
	GVTRounds     int64   `json:"gvt_rounds"`
	SyncRounds    int64   `json:"sync_rounds"`
	FinalGVT      float64 `json:"final_gvt"`
	Disparity     float64 `json:"disparity"`
	SentLocal     int64   `json:"sent_local"`
	SentRegional  int64   `json:"sent_regional"`
	SentRemote    int64   `json:"sent_remote"`
	AntiSent      int64   `json:"anti_sent"`
	Annihilated   int64   `json:"annihilated"`
	BarrierWaitNs int64   `json:"barrier_wait_ns"`
	IdleNs        int64   `json:"idle_ns"`
	GVTTimeNs     int64   `json:"gvt_time_ns"`
	MPIMessages   int64   `json:"mpi_messages"`
	MPIBytes      int64   `json:"mpi_bytes"`
	// NullMessages counts conservative null-message traffic; omitted when
	// zero so Time Warp reports keep their byte layout.
	NullMessages   int64  `json:"null_messages,omitempty"`
	CommitChecksum string `json:"commit_checksum"`

	// Robustness counters (see stats.Run); omitted when zero so
	// fault-free reports keep their pre-fault-injection byte layout.
	Retransmits        int64 `json:"retransmits,omitempty"`
	TransportDups      int64 `json:"transport_dups,omitempty"`
	TransportExhausted int64 `json:"transport_exhausted,omitempty"`
	FaultDrops         int64 `json:"fault_drops,omitempty"`
	FaultDups          int64 `json:"fault_dups,omitempty"`
	FaultJitters       int64 `json:"fault_jitters,omitempty"`
	FaultWindowDrops   int64 `json:"fault_window_drops,omitempty"`
	WatchdogRestarts   int64 `json:"watchdog_restarts,omitempty"`
	WatchdogFallbacks  int64 `json:"watchdog_fallbacks,omitempty"`

	// Load-balancer counters (see stats.Run); omitted when zero so
	// static-policy reports keep their pre-balancer byte layout.
	Migrations     int64 `json:"migrations,omitempty"`
	MigratedEvents int64 `json:"migrated_events,omitempty"`
}

// RunStatsOf copies a finished run's aggregates into report form. A
// conservative run leaves the rollback, fault and migration counters
// zero, a Time Warp run the null-message count.
func RunStatsOf(r *stats.Run) RunStats {
	return RunStats{
		WallNanos:      int64(r.WallTime),
		Committed:      r.Workers.Committed,
		Processed:      r.Workers.Processed,
		RolledBack:     r.Workers.RolledBack,
		Rollbacks:      r.Workers.Rollbacks,
		Stragglers:     r.Workers.Stragglers,
		AntiRollbacks:  r.Workers.AntiRollbck,
		Efficiency:     r.Efficiency(),
		EventRate:      r.EventRate(),
		GVTRounds:      r.GVTRounds,
		SyncRounds:     r.SyncRounds,
		FinalGVT:       r.FinalGVT,
		Disparity:      r.Disparity,
		SentLocal:      r.Workers.SentLocal,
		SentRegional:   r.Workers.SentRegion,
		SentRemote:     r.Workers.SentRemote,
		AntiSent:       r.Workers.AntiSent,
		Annihilated:    r.Workers.Annihilated,
		BarrierWaitNs:  int64(r.Workers.BarrierWait),
		IdleNs:         int64(r.Workers.IdleTime),
		GVTTimeNs:      int64(r.Workers.GVTTime),
		MPIMessages:    r.MPIMessages,
		MPIBytes:       r.MPIBytes,
		NullMessages:   r.NullMessages,
		CommitChecksum: Checksum(r.CommitChecksum),

		Retransmits:        r.Retransmits,
		TransportDups:      r.TransportDups,
		TransportExhausted: r.TransportExhausted,
		FaultDrops:         r.FaultDrops,
		FaultDups:          r.FaultDups,
		FaultJitters:       r.FaultJitters,
		FaultWindowDrops:   r.FaultWindowDrops,
		WatchdogRestarts:   r.WatchdogRestarts,
		WatchdogFallbacks:  r.WatchdogFallbacks,
		Migrations:         r.Migrations,
		MigratedEvents:     r.MigratedEvents,
	}
}

// WorkerSeries is one worker's sampled time series. Samples are in
// lockstep with the report's Rounds series: Samples[i] was taken at
// Rounds[i].
type WorkerSeries struct {
	Worker  int            `json:"worker"`
	Node    int            `json:"node"`
	Samples []WorkerSample `json:"samples"`
}

// Report is the exported run document: configuration, final aggregates,
// the sampled time series, and registry contents.
type Report struct {
	Schema string    `json:"schema"`
	Config RunConfig `json:"config"`
	Stats  RunStats  `json:"stats"`
	// SampleStride is the final sampling stride in GVT rounds (1 unless
	// the buffers filled and the recorder decimated).
	SampleStride int                `json:"sample_stride"`
	Rounds       []RoundSample      `json:"rounds"`
	Workers      []WorkerSeries     `json:"workers"`
	Counters     []NamedValue       `json:"counters"`
	Gauges       []NamedValue       `json:"gauges"` // always []: a schema key nothing fills
	Histograms   []HistogramSummary `json:"histograms"`
}

// Checksum formats a commit checksum for the report.
func Checksum(sum uint64) string { return fmt.Sprintf("%016x", sum) }

// BuildReport assembles a report from a recorder. rec may be nil (series
// and registry blocks come out empty). workersPerNode maps worker index
// to node for the per-worker series.
func BuildReport(cfg RunConfig, st RunStats, rec *Recorder, workersPerNode int) *Report {
	rep := &Report{
		Schema:       ReportSchema,
		Config:       cfg,
		Stats:        st,
		SampleStride: 1,
		Rounds:       []RoundSample{},
		Workers:      []WorkerSeries{},
		Counters:     []NamedValue{},
		Gauges:       []NamedValue{},
		Histograms:   []HistogramSummary{},
	}
	if rec == nil {
		return rep
	}
	rep.SampleStride = rec.Stride()
	if r := rec.Rounds(); r != nil {
		rep.Rounds = r
	}
	for w := 0; w < rec.NumWorkers(); w++ {
		node := 0
		if workersPerNode > 0 {
			node = w / workersPerNode
		}
		s := rec.WorkerSeries(w)
		if s == nil {
			s = []WorkerSample{}
		}
		rep.Workers = append(rep.Workers, WorkerSeries{Worker: w, Node: node, Samples: s})
	}
	reg := rec.Registry()
	rep.Counters = reg.CounterValues()
	rep.Histograms = reg.HistogramSummaries()
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// ReportSet accumulates the reports of a multi-run session (the
// experiment harness adds one per engine execution).
type ReportSet struct {
	Reports []*Report `json:"reports"`
}

// NewReportSet returns an empty set.
func NewReportSet() *ReportSet { return &ReportSet{} }

// Add appends one report.
func (s *ReportSet) Add(r *Report) { s.Reports = append(s.Reports, r) }

// Len returns the number of collected reports.
func (s *ReportSet) Len() int { return len(s.Reports) }
