package metrics

import "math"

// RoundSample is one cluster-level time-series point, taken when a GVT
// round completes. Virtual time is the series key: GVT for the simulated
// model's clock, AtNanos for the simulated wall clock.
type RoundSample struct {
	AtNanos    int64   `json:"at_ns"`
	Efficiency float64 `json:"efficiency"`
	GVT        float64 `json:"gvt"`
	// MPI traffic at sample time: in-flight = put on the wire but not yet
	// delivered; sent = cumulative since run start.
	MPIInFlightBytes int64 `json:"mpi_inflight_bytes"`
	MPIInFlightMsgs  int64 `json:"mpi_inflight_msgs"`
	MPISentBytes     int64 `json:"mpi_sent_bytes"`
	MPISentMsgs      int64 `json:"mpi_sent_msgs"`
	Round            int64 `json:"round"`
	Sync             bool  `json:"sync"`
}

// WorkerSample is one worker's time-series point, taken in lockstep with
// the round sample at the same index.
type WorkerSample struct {
	// BarrierWaitNs is cumulative virtual time parked at barriers.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
	// LVT is the worker's minimum unprocessed timestamp; -1 encodes
	// "drained" (no pending event; +Inf is not representable in JSON).
	LVT float64 `json:"lvt"`
	// Mailbox is the incoming mailbox depth.
	Mailbox int `json:"mailbox"`
	// Pending is the pending event set length.
	Pending int `json:"pending"`
	// Rollbacks and RolledBack are cumulative since run start; a timeline
	// of deltas between consecutive samples localizes rollback cascades.
	Rollbacks  int64 `json:"rollbacks"`
	RolledBack int64 `json:"rolled_back"`
	// Uncommitted is the processed-but-not-fossil-collected event count.
	Uncommitted int `json:"uncommitted"`
}

// SafeLVT converts a possibly-infinite LVT into its JSON encoding.
func SafeLVT(v float64) float64 {
	if math.IsInf(v, 0) || v == math.MaxFloat64 {
		return -1
	}
	return v
}

// Recorder samples per-round telemetry into bounded buffers. Attach one
// to core.Config.Metrics; the engine drives it. Each series grows with the
// run, so a short run pays only for its rounds. Sampling starts at every
// GVT round; at MaxSamples the recorder compacts in place (keeps every
// other sample) and doubles its sampling stride, so a bounded buffer
// covers the whole run at adaptive resolution and sampling allocates
// nothing once a series has filled.
type Recorder struct {
	// MaxSamples caps each series' length (default 512). When reached,
	// samples are halved and the round stride doubles.
	MaxSamples int

	// OnProgress, when non-nil, receives one ProgressUpdate per completed
	// GVT round, independent of the sampling stride (the sampled series
	// decimates; the progress stream does not). The engine invokes it
	// synchronously from the run's goroutine: implementations must be
	// fast and must do their own locking if they fan out.
	OnProgress func(ProgressUpdate)

	reg     Registry
	stride  int
	seen    int64 // rounds offered since the stride last changed
	rounds  []RoundSample
	workers [][]WorkerSample // [worker][sample index], lockstep with rounds
	scratch []WorkerSample   // engine-side staging row, one per worker
}

// NewRecorder returns a recorder with default knobs.
func NewRecorder() *Recorder { return &Recorder{} }

// Registry returns the recorder's metric registry. Usable before Init,
// so callers can pre-register instruments.
func (r *Recorder) Registry() *Registry { return &r.reg }

// Init sets up the series for the given worker count. The engine calls
// it at construction; calling it again resets the collected series.
func (r *Recorder) Init(workers int) {
	if r.MaxSamples <= 0 {
		r.MaxSamples = 512
	}
	r.MaxSamples += r.MaxSamples % 2 // even cap keeps compaction phase-aligned
	r.stride = 1
	r.seen = 0
	r.rounds = nil
	r.workers = make([][]WorkerSample, workers)
	r.scratch = make([]WorkerSample, workers)
}

// Scratch returns the staging row for per-worker samples: the engine
// fills it and passes it back to SampleRound, so steady-state sampling
// allocates nothing.
func (r *Recorder) Scratch() []WorkerSample { return r.scratch }

// SampleRound offers one completed GVT round to the recorder. ws must
// have one entry per worker (usually the Scratch row); its contents are
// copied. Rounds not on the current stride are skipped.
func (r *Recorder) SampleRound(rs RoundSample, ws []WorkerSample) {
	if r.stride == 0 {
		return // Init never ran (recorder attached to nothing)
	}
	r.seen++
	if (r.seen-1)%int64(r.stride) != 0 {
		return
	}
	if len(r.rounds) == r.MaxSamples {
		r.compact()
		// The stride just doubled. This sample still lands (compaction
		// kept even indices, so it sits one new-stride step after the last
		// kept one); it counts as the new phase's origin.
		r.seen = 1
	}
	r.rounds = append(r.rounds, rs)
	for i := range r.workers {
		r.workers[i] = append(r.workers[i], ws[i])
	}
}

// compact halves every series in place (keeping even indices) and
// doubles the stride.
func (r *Recorder) compact() {
	keep := func(n int) int { return (n + 1) / 2 }
	for i := 0; i < len(r.rounds)/2+len(r.rounds)%2; i++ {
		r.rounds[i] = r.rounds[2*i]
	}
	r.rounds = r.rounds[:keep(len(r.rounds))]
	for w := range r.workers {
		s := r.workers[w]
		for i := 0; i < keep(len(s)); i++ {
			s[i] = s[2*i]
		}
		r.workers[w] = s[:keep(len(s))]
	}
	r.stride *= 2
	r.seen = 0
}

// Stride returns the current sampling stride in rounds (grows by powers
// of two as the buffers fill).
func (r *Recorder) Stride() int {
	if r.stride == 0 {
		return 1
	}
	return r.stride
}

// Rounds returns the collected cluster-level series (oldest first).
func (r *Recorder) Rounds() []RoundSample { return r.rounds }

// WorkerSeries returns worker w's series, in lockstep with Rounds.
func (r *Recorder) WorkerSeries(w int) []WorkerSample { return r.workers[w] }

// NumWorkers returns the worker count given to Init.
func (r *Recorder) NumWorkers() int { return len(r.workers) }
