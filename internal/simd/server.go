package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/pkg/client"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull: admission control refused the job (HTTP 429).
	ErrQueueFull = errors.New("simd: job queue full")
	// ErrClosed: the server is draining or closed (HTTP 503).
	ErrClosed = errors.New("simd: server closed")
	// ErrNotFound: no job with that id (HTTP 404).
	ErrNotFound = errors.New("simd: no such job")
	// ErrFinished: the job already reached a terminal state (HTTP 409).
	ErrFinished = errors.New("simd: job already finished")
)

// Options configures a Server.
type Options struct {
	// Workers is the number of simulations executing concurrently
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the waiting room beyond the running jobs;
	// submissions past it are rejected with ErrQueueFull (default 64).
	QueueDepth int
	// CacheBytes is the result cache budget in bytes (default 64 MiB;
	// negative disables caching).
	CacheBytes int64
	// FlightRounds is the length of the tail of a job's event history
	// that /jobs/{id}/flight serves: the most recent per-GVT-round
	// progress snapshots, for post-mortems (default 64).
	FlightRounds int
	// FlightRetain bounds how many executed jobs keep their event history
	// once finished; beyond it the oldest one's history is released,
	// keeping memory bounded while recent post-mortems stay available
	// (default 128). Cache and store hits have no history and do not count.
	FlightRetain int
	// Logger receives structured job-lifecycle logs; nil discards them
	// (the right default for tests and embedding).
	Logger *slog.Logger
	// Store is an optional disk layer under the in-memory cache:
	// completed reports are persisted there and misses consult it before
	// executing, so results survive restarts and can be shared between
	// daemons on one host. Store failures never fail a job — the store
	// degrades itself and the server keeps serving memory-only.
	Store *store.Store
	// Journal, when set, records job admissions and terminal states so a
	// restarted daemon can re-enqueue interrupted work via Recover.
	Journal *store.Journal
	// JobDeadline bounds each job's wall-clock run time; a job exceeding
	// it is cancelled through the kernel's Env.Cancel path and marked
	// failed with a deadline message (0: unbounded).
	JobDeadline time.Duration
	// NodeID is this daemon's stable identity in a cluster; /healthz and
	// /stats echo it so aggregated cluster stats can attribute counts to
	// members. Empty on a standalone daemon (cmd/simd defaults it to the
	// listener's host:port).
	NodeID string
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.FlightRounds <= 0 {
		o.FlightRounds = 64
	}
	if o.FlightRetain <= 0 {
		o.FlightRetain = 128
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// Server is the simulation job service: submissions flow through the
// content-addressed cache, then singleflight coalescing, then the
// bounded worker pool. See the package comment for why each stage is
// sound.
type Server struct {
	opts    Options
	pool    *harness.Pool
	cache   *Cache
	obs     *serviceObs
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // by id
	order    []*Job          // submission order, for listing
	inflight map[string]*Job // spec hash → queued/running job (singleflight table)
	retired  []*Job          // finished jobs still holding history, oldest first
	seq      int64

	executions atomic.Int64 // engine runs actually started (cache/dedup bypass this)
	dedupHits  atomic.Int64 // submissions coalesced onto an in-flight job
	rejected   atomic.Int64 // submissions refused by admission control
	deadlined  atomic.Int64 // jobs failed by the wall-clock deadline
	panicked   atomic.Int64 // jobs failed by an engine panic
	recovered  atomic.Int64 // jobs re-enqueued from the journal at startup
}

// SubmitResult describes how a submission was satisfied.
type SubmitResult struct {
	Job *Job
	// CacheHit: the result came straight from the cache (memory or disk);
	// the job was born done and nothing executed.
	CacheHit bool
	// StoreHit: the hit was served by the persistent store rather than
	// the in-memory cache (a warm restart or a sibling daemon's work).
	StoreHit bool
	// Deduped: an identical spec was already in flight; Job is that
	// existing job, not a new one.
	Deduped bool
}

// NewServer starts a job service. Callers must Close it to stop the
// workers.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		pool:     harness.NewPool(opts.Workers, opts.QueueDepth),
		cache:    NewCache(opts.CacheBytes),
		log:      opts.Logger,
		started:  time.Now(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	s.obs = newServiceObs(s)
	return s
}

// Submit admits one job. The spec is canonicalized, content-hashed and
// checked against the admission caps (a bad or oversized spec is HTTP
// 400); a cached result returns a job born done, an identical in-flight spec
// returns that job (singleflight), and otherwise the job enters the
// bounded queue — or is rejected with ErrQueueFull.
//
// Admission happens under s.mu; the journal does not. The begin record
// is appended and fsynced after the lock is released — the job may
// already be running — and Submit returns, acknowledging the job, only
// once it is durable. No disk flush sits inside the lock every status
// and report request takes.
func (s *Server) Submit(spec JobSpec) (SubmitResult, error) {
	canon, hash, err := spec.Address()
	if err != nil {
		return SubmitResult{}, err
	}
	if err := admissible(canon); err != nil {
		return SubmitResult{}, err
	}
	res, err := s.admit(hash, canon)
	if err != nil {
		return SubmitResult{}, err
	}
	switch {
	case res.CacheHit:
		s.journalRetire(hash)
	case res.Deduped:
		// The job's own submitter may still be writing its begin record;
		// this acknowledgement promises the same durability.
		<-res.Job.begun
	default:
		// Deferred: the job's worker and every deduped submitter wait on
		// begun, and must be released even if the logger or the journal
		// panics under this submitter.
		defer close(res.Job.begun)
		s.log.Info("job admitted", "job", res.Job.id, "hash", hash, "model", canon.Model,
			"queue_len", s.pool.Stats().QueueLen)
		s.journalBegin(res.Job, canon)
	}
	return res, nil
}

// admit is the locked half of Submit: cache, store, singleflight table,
// then the bounded queue.
func (s *Server) admit(hash string, canon JobSpec) (SubmitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResult{}, ErrClosed
	}

	// Memory first; on a miss consult the persistent store before
	// executing. The read happens under s.mu — it is one small local file,
	// and holding the lock keeps the singleflight invariant (at most one
	// job per hash) trivially true. A degraded store answers instantly.
	data, hit := s.cache.Get(hash)
	storeHit := false
	if !hit && s.opts.Store != nil {
		if data, hit = s.opts.Store.Get(hash); hit {
			s.cache.Put(hash, data)
			storeHit = true
		}
	}
	if hit {
		// Born done. The job has no history to bound, so it is not enrolled
		// in flight retention: hits must not age executed jobs out of it.
		j := s.newJobLocked(hash, canon)
		j.cacheHit, j.storeHit = true, storeHit
		j.state = StateDone
		j.report = data
		j.finished = j.submitted
		outcome, msg := "cache_hit", "job served from cache"
		if storeHit {
			outcome, msg = "store_hit", "job served from persistent store"
		}
		s.obs.submissions.With(outcome).Inc()
		s.obs.jobsFinished.With(string(StateDone)).Inc()
		s.log.Info(msg, "job", j.id, "hash", j.hash, "model", canon.Model)
		return SubmitResult{Job: j, CacheHit: true, StoreHit: storeHit}, nil
	}

	// A job stays in s.inflight for a moment after it settles (execute
	// removes it in a deferred step); a settled job is not in flight, and
	// coalescing onto it would hand the submitter someone else's
	// cancellation or, with the cache off, skip a run it asked for.
	if prior, ok := s.inflight[hash]; ok && !client.Terminal(prior.State()) {
		prior.mu.Lock()
		prior.deduped++
		prior.mu.Unlock()
		s.dedupHits.Add(1)
		s.obs.submissions.With("deduped").Inc()
		s.log.Info("submission coalesced onto in-flight job", "job", prior.id, "hash", hash)
		return SubmitResult{Job: prior, Deduped: true}, nil
	}

	j := s.newJobLocked(hash, canon)
	j.begun = make(chan struct{})
	if !s.pool.TrySubmit(func() { s.execute(j) }) {
		// Roll the record back: a rejected submission leaves no trace.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.seq--
		s.rejected.Add(1)
		s.obs.submissions.With("rejected").Inc()
		s.log.Warn("submission rejected: queue full", "hash", hash,
			"queue_cap", s.opts.QueueDepth)
		return SubmitResult{}, ErrQueueFull
	}
	s.inflight[hash] = j
	s.obs.submissions.With("admitted").Inc()
	return SubmitResult{Job: j}, nil
}

// journalRetire ends a replayed-pending job that a warm-restart
// re-submission resolved without executing (cache or store hit), so it
// stops replaying on later restarts.
func (s *Server) journalRetire(hash string) {
	if s.opts.Journal == nil {
		return
	}
	if err := s.opts.Journal.Retire(hash); err != nil {
		s.log.Warn("journal retire failed", "hash", hash, "error", err.Error())
	}
}

// journalBegin records an admission in the warm-restart journal; a
// journal failure is logged, never surfaced to the submitter.
func (s *Server) journalBegin(j *Job, canon JobSpec) {
	if s.opts.Journal == nil {
		return
	}
	spec, err := json.Marshal(canon)
	if err == nil {
		err = s.opts.Journal.Begin(j.hash, spec)
	}
	if err != nil {
		s.log.Warn("journal begin failed", "job", j.id, "error", err.Error())
	}
}

// newJobLocked allocates and records a job; the caller holds s.mu.
func (s *Server) newJobLocked(hash string, canon JobSpec) *Job {
	s.seq++
	j := newJob(fmt.Sprintf("j%06d", s.seq), hash, canon)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	return j
}

// retireLocked enrolls an executed job, now finished, in flight
// retention, releasing the oldest retired job's history when the window
// overflows; the caller holds s.mu.
func (s *Server) retireLocked(j *Job) {
	s.retired = append(s.retired, j)
	for len(s.retired) > s.opts.FlightRetain {
		old := s.retired[0]
		s.retired = s.retired[1:]
		old.releaseHistory()
		s.log.Debug("released job history", "job", old.id)
	}
}

// journalEnd records a job's terminal state in the warm-restart
// journal. It first waits for the job's begin record, which Submit
// appends outside s.mu while the job may already be running: an end
// ahead of its begin in the file would leave the begin replaying on
// every restart. published says the store holds the job's result; only
// then may the record go unsynced.
func (s *Server) journalEnd(j *Job, state State, published bool) {
	if s.opts.Journal == nil {
		return
	}
	<-j.begun
	var err error
	if published {
		err = s.opts.Journal.EndPublished(j.hash)
	} else {
		err = s.opts.Journal.End(j.hash, string(state))
	}
	if err != nil {
		s.log.Warn("journal end failed", "job", j.id, "error", err.Error())
	}
}

// execute runs one job on a pool worker. The order at the end is store
// publish, journal end, terminal state: whoever sees a job settled —
// a poller, a waiter, the next daemon generation — finds its end record
// already written (fsynced unless the store publish succeeded).
func (s *Server) execute(j *Job) {
	defer func() {
		s.mu.Lock()
		if s.inflight[j.hash] == j {
			delete(s.inflight, j.hash)
		}
		s.retireLocked(j)
		s.mu.Unlock()
		s.obs.jobsFinished.With(string(j.State())).Inc()
	}()
	if !j.beginRunning() {
		// Cancelled while queued: Cancel journals the end and settles the
		// job. What is deferred above wants it settled.
		j.Wait(context.Background())
		s.log.Info("job cancelled while queued", "job", j.id)
		return
	}
	s.obs.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
	s.log.Info("job running", "job", j.id, "hash", j.hash, "model", j.spec.Model,
		"queued_seconds", j.started.Sub(j.submitted).Seconds())

	// Wall-clock deadline: enforced through the same Env.Cancel path as
	// a user cancellation, so the kernel unwinds cleanly at its next
	// dispatch boundary.
	if d := s.opts.JobDeadline; d > 0 {
		timer := time.AfterFunc(d, func() {
			if j.markDeadlineExceeded() {
				s.deadlined.Add(1)
				s.log.Warn("job wall-clock deadline exceeded", "job", j.id,
					"deadline_seconds", d.Seconds())
			}
		})
		defer timer.Stop()
	}

	report, runErr := s.runEngine(j)
	state, errMsg, published := StateFailed, "", false
	var pe *panicError
	switch {
	case runErr == nil:
		state = StateDone
		s.cache.Put(j.hash, report)
		if s.opts.Store != nil {
			var err error
			if published, err = s.opts.Store.Publish(j.hash, report); err != nil {
				s.log.Warn("store put failed; result kept in memory only",
					"job", j.id, "error", err.Error())
			}
		}
	case errors.Is(runErr, sim.ErrCancelled) && j.deadlineExceeded():
		errMsg = fmt.Sprintf("wall-clock deadline %s exceeded", s.opts.JobDeadline)
	case errors.Is(runErr, sim.ErrCancelled):
		state = StateCancelled
	case errors.As(runErr, &pe):
		// Panic isolation: the worker survives, the job fails with the
		// stack recorded for /jobs/{id}/flight post-mortems.
		j.setPanicStack(pe.stack)
		s.panicked.Add(1)
		errMsg = runErr.Error()
	default:
		errMsg = runErr.Error()
	}
	s.journalEnd(j, state, published)
	j.finish(state, report, errMsg)
	dur := j.finished.Sub(j.started)
	s.obs.runDuration.Observe(dur.Seconds())
	switch {
	case pe != nil:
		s.log.Error("job failed: engine panic", "job", j.id, "error", j.Err(),
			"duration_seconds", dur.Seconds(), "rounds", j.Rounds(), "stack", pe.stack)
	case state == StateFailed:
		s.log.Error("job failed", "job", j.id, "error", j.Err(),
			"duration_seconds", dur.Seconds(), "rounds", j.Rounds())
	default:
		s.log.Info("job finished", "job", j.id, "state", string(state),
			"duration_seconds", dur.Seconds(), "rounds", j.Rounds(),
			"report_bytes", len(report))
	}
}

// panicError carries a recovered engine panic plus the stack at the
// point of the panic, for the job's post-mortem record.
type panicError struct {
	val   string
	stack string
}

func (e *panicError) Error() string { return "simd: engine panic: " + e.val }

// testInjectPanic, when set by a test, runs inside runEngine's recover
// scope so panic isolation can be exercised without a genuinely buggy
// kernel.
var testInjectPanic func(spec JobSpec)

// runEngine builds and runs the engine for a job, returning the
// canonical report bytes. Engine panics become errors carrying the
// stack: one bad job must not take down the worker pool, and the
// post-mortem needs to say where it died.
func (s *Server) runEngine(j *Job) (report []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	if testInjectPanic != nil {
		testInjectPanic(j.spec)
	}
	rec := metrics.NewRecorder()
	// Bridge every GVT round into the live registry before publishing it
	// to streamers. prev carries the previous round's cumulative values;
	// only the engine goroutine touches it.
	var prev metrics.ProgressUpdate
	rec.OnProgress = func(u metrics.ProgressUpdate) {
		s.obs.bridgeProgress(prev, u)
		prev = u
		j.publish(u)
	}
	eng, err := run.New(j.spec, run.Attach{Metrics: rec})
	if err != nil {
		return nil, err
	}
	j.attachEngine(eng)
	s.executions.Add(1)
	r, err := eng.Run()
	if err != nil {
		return nil, err
	}
	rep := eng.Report(r)
	rep.Config.Label = "simd/" + j.spec.Model
	return rep.MarshalStable()
}

// Job returns a job by id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Cancel requests cancellation of a job: running jobs abort at the
// kernel's next dispatch boundary, and a queued job is ended here, in
// execute's order — the end record flushed to the journal (outside s.mu,
// behind the job's begin), then the terminal state — so a crash before a
// worker would have reached it replays nothing the caller saw cancelled.
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	ok, settle := j.requestCancel()
	if !ok {
		return ErrFinished
	}
	if settle {
		// Deferred: the worker that picks the job up waits for this.
		defer j.finish(StateCancelled, nil, "")
		s.journalEnd(j, StateCancelled, false)
	}
	s.log.Info("job cancellation requested", "job", j.id)
	return nil
}

// Close drains the service: new submissions fail with ErrClosed, every
// already-admitted job runs (or settles its cancellation), and the
// workers exit. Safe to call twice.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
}

// Executions returns how many engine runs actually started — the
// counter the cache-hit acceptance test audits.
func (s *Server) Executions() int64 { return s.executions.Load() }

// RetryAfter estimates how long a rejected submitter should wait before
// retrying: the time to drain the current queue, i.e. (queue length + 1)
// × mean observed run duration ÷ workers, clamped to [1s, 2m]. Before
// any job has finished the mean falls back to one second, so early 429s
// still carry a sane hint. The HTTP layer attaches it as a Retry-After
// header; the cluster router uses it to back off per node.
func (s *Server) RetryAfter() time.Duration {
	ps := s.pool.Stats()
	mean := 1.0 // seconds; optimistic prior before the first completion
	if n := s.obs.runDuration.Count(); n > 0 {
		mean = s.obs.runDuration.Sum() / float64(n)
	}
	workers := ps.Workers
	if workers < 1 {
		workers = 1
	}
	secs := float64(ps.QueueLen+1) * mean / float64(workers)
	d := time.Duration(secs * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// Degraded reports whether the persistent store is bypassing a
// misbehaving disk; /healthz surfaces it as status "degraded". A server
// without a store is never degraded.
func (s *Server) Degraded() bool {
	return s.opts.Store != nil && s.opts.Store.Degraded()
}

// Recover re-enqueues the jobs the journal found interrupted by the
// previous run (warm restart). Jobs whose results reached the store
// before the crash come back as instant cache hits; genuinely
// interrupted jobs re-execute. Call it once, after NewServer and before
// the handler serves its first request (cmd/simd does): the recovered
// count is published only when the whole replay is done. It returns how
// many jobs were re-submitted.
func (s *Server) Recover() int {
	if s.opts.Journal == nil {
		return 0
	}
	n := 0
	for _, p := range s.opts.Journal.Pending() {
		var spec JobSpec
		if err := json.Unmarshal(p.Spec, &spec); err != nil {
			s.log.Warn("recovery: unparseable journaled spec", "hash", p.Hash, "error", err.Error())
			continue
		}
		res, err := s.Submit(spec)
		if err != nil {
			s.log.Warn("recovery: re-submission refused", "hash", p.Hash, "error", err.Error())
			continue
		}
		n++
		s.log.Info("recovered journaled job", "job", res.Job.ID(), "hash", p.Hash,
			"cache_hit", res.CacheHit, "store_hit", res.StoreHit)
		// A spec journaled before a canonicalisation change re-submits under
		// a new address, and nothing will ever end the old one. The
		// acknowledged re-submission is durable under its own hash (or was a
		// hit), so the old begin is retired rather than replayed forever.
		if res.Job.hash != p.Hash {
			s.journalRetire(p.Hash)
		}
	}
	s.recovered.Store(int64(n))
	return n
}

// Stats is a point-in-time service snapshot. The response schema is
// documented in README.md ("Running as a service").
type Stats struct {
	// NodeID is the daemon's cluster identity (Options.NodeID; empty on a
	// standalone daemon without one).
	NodeID      string `json:"node_id,omitempty"`
	Workers     int    `json:"workers"`
	WorkersBusy int    `json:"workers_busy"`
	QueueCap    int    `json:"queue_cap"`
	// QueueLen is the current queue depth: admitted jobs not yet picked
	// up by a worker.
	QueueLen   int            `json:"queue_len"`
	Jobs       int            `json:"jobs"`
	ByState    map[string]int `json:"by_state"`
	Executions int64          `json:"executions"`
	DedupHits  int64          `json:"dedup_hits"`
	Rejected   int64          `json:"rejected"`
	// DeadlineExceeded counts jobs failed by the wall-clock deadline;
	// Panics counts jobs failed by a recovered engine panic; Recovered
	// counts jobs the startup journal replay re-enqueued.
	DeadlineExceeded int64      `json:"deadline_exceeded"`
	Panics           int64      `json:"panics"`
	Recovered        int64      `json:"recovered"`
	Cache            CacheStats `json:"cache"`
	// Store and Journal are nil on a memory-only server.
	Store   *store.Stats        `json:"store,omitempty"`
	Journal *store.JournalStats `json:"journal,omitempty"`

	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// jobsByState counts current jobs per lifecycle state.
func (s *Server) jobsByState() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	by := make(map[string]int, len(allStates))
	for _, j := range s.order {
		by[string(j.State())]++
	}
	return by
}

// Stats returns a snapshot of service accounting.
func (s *Server) Stats() Stats {
	ps := s.pool.Stats()
	by := s.jobsByState()
	n := 0
	for _, c := range by {
		n += c
	}
	st := Stats{
		NodeID:  s.opts.NodeID,
		Workers: ps.Workers, WorkersBusy: ps.Busy,
		QueueCap: ps.QueueCap, QueueLen: ps.QueueLen,
		Jobs: n, ByState: by,
		Executions:       s.executions.Load(),
		DedupHits:        s.dedupHits.Load(),
		Rejected:         s.rejected.Load(),
		DeadlineExceeded: s.deadlined.Load(),
		Panics:           s.panicked.Load(),
		Recovered:        s.recovered.Load(),
		Cache:            s.cache.Stats(),
		StartedAt:        s.started,
		UptimeSeconds:    time.Since(s.started).Seconds(),
	}
	if s.opts.Store != nil {
		v := s.opts.Store.Stats()
		st.Store = &v
	}
	if s.opts.Journal != nil {
		v := s.opts.Journal.Stats()
		st.Journal = &v
	}
	return st
}
