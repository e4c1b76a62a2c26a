package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// maxSpecBytes bounds a submitted spec document; anything larger is a
// client error, not a simulation.
const maxSpecBytes = 1 << 20

// JobStatus is the wire form of a job's lifecycle state.
type JobStatus struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	// StoreHit marks a cache hit served from the persistent store (it
	// survived a restart or was published by a sibling daemon).
	StoreHit bool `json:"store_hit,omitempty"`
	// Deduped counts later identical submissions coalesced onto this job.
	Deduped int64  `json:"deduped,omitempty"`
	Rounds  int    `json:"rounds"`
	Error   string `json:"error,omitempty"`
	// GVT and Efficiency echo the most recent progress round (0 before
	// the first round), so pollers and simtop can show live progress
	// without streaming /events.
	GVT        float64 `json:"gvt"`
	Efficiency float64 `json:"efficiency"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// status snapshots a job for the wire.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	last := j.lastRound()
	return JobStatus{
		ID: j.id, Hash: j.hash, State: j.state, CacheHit: j.cacheHit,
		StoreHit: j.storeHit,
		Deduped:  j.deduped, Rounds: int(j.rounds), Error: j.errMsg,
		GVT: last.GVT, Efficiency: last.Efficiency,
		SubmittedAt: j.submitted,
		StartedAt:   optTime(j.started),
		FinishedAt:  optTime(j.finished),
	}
}

// submitResponse is the wire form of a submission outcome.
type submitResponse struct {
	JobStatus
	// CacheHitNow is true when THIS submission was served from the cache
	// (JobStatus.CacheHit echoes the job's own birth; for a deduped
	// submission they can differ).
	CacheHitNow bool `json:"cache_hit_now"`
	DedupedNow  bool `json:"deduped_now"`
}

// Handler returns the HTTP API:
//
//	POST   /jobs              submit a JobSpec  (202; 200 on cache hit/dedup; 429 full)
//	POST   /jobs?wait         submit and hold the request until the job settles:
//	                          200 {"status": <submission, terminal>, "report": <report, done only>}
//	                          (bare or a true value; ?wait=0 is a plain submit, a non-boolean 400)
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/report  the canonical run report        (409 until done)
//	GET    /jobs/{id}/events  NDJSON per-GVT-round progress stream
//	GET    /jobs/{id}/flight  flight recorder: bounded tail of recent rounds
//	DELETE /jobs/{id}         cancel                           (409 if finished)
//	GET    /metrics           Prometheus text exposition
//	GET    /stats             service counters
//	GET    /healthz           liveness + build identification
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/flight", s.handleFlight)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.Handle("GET /metrics", s.MetricsHandler())
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.accessLog(mux)
}

// MetricsHandler serves the observability registry in Prometheus text
// exposition format — also mountable on a separate debug listener.
func (s *Server) MetricsHandler() http.Handler { return s.obs.reg.Handler() }

// healthzResponse is the liveness document: enough identity for a
// cluster operator to tell nodes and builds apart, plus the durability
// posture ("ok" | "degraded" — still serving, but memory-only because
// the persistent store's disk is misbehaving).
type healthzResponse struct {
	Status string `json:"status"`
	// NodeID is the daemon's stable cluster identity (Options.NodeID).
	NodeID        string    `json:"node_id,omitempty"`
	Build         obs.Build `json:"build"`
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// StoreDir is set when a persistent store is configured.
	StoreDir string `json:"store_dir,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		NodeID:        s.opts.NodeID,
		Build:         obs.ReadBuild(),
		StartedAt:     s.started,
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if st := s.opts.Store; st != nil {
		resp.StoreDir = st.Dir()
		if st.Degraded() {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusWriter records the response code for access logging while
// passing Flush through to the underlying writer (the NDJSON stream
// depends on it).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessLog wraps the API with debug-level request logging; with the
// default nop logger it costs one Enabled check per request.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Debug("http request", "method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration_seconds", time.Since(start).Seconds())
	})
}

// httpError is the uniform error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait, err := waitParam(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	res, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Tell the client when retrying is worth it: the estimated queue
		// drain time. Integer seconds, as RFC 9110 specifies.
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(s.RetryAfter().Seconds()))))
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wait {
		s.answerSettled(w, r, res)
		return
	}
	code := http.StatusAccepted
	if res.CacheHit || res.Deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, res.response())
}

// waitParam reads the submit route's wait parameter: bare (?wait) or a
// true value asks for the held answer, a false value (?wait=0) for the
// ordinary one, and anything else is a bad request rather than a guess.
func waitParam(q url.Values) (bool, error) {
	v := q.Get("wait")
	if v == "" {
		return q.Has("wait"), nil
	}
	wait, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad wait parameter %q: want it bare, or a boolean", v)
	}
	return wait, nil
}

// response snapshots the submission for the wire as the job stands now.
func (r SubmitResult) response() submitResponse {
	return submitResponse{JobStatus: r.Job.status(), CacheHitNow: r.CacheHit, DedupedNow: r.Deduped}
}

// answerSettled is the second half of POST /jobs?wait: hold the request
// until the admitted job settles, then answer the whole round trip in
// one document — the submission in its terminal state and, for a done
// job, the report. The report goes out as the stored bytes, the same
// ones /jobs/{id}/report serves, spliced into the envelope rather than
// passed through an encoder. A client that goes away abandons only the
// request: the job runs on and its result is cached as usual.
func (s *Server) answerSettled(w http.ResponseWriter, r *http.Request, res SubmitResult) {
	if !res.Job.Wait(r.Context()).Terminal() {
		return // client went away; nobody is left to answer
	}
	status, err := json.Marshal(res.response())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	const head, mid, tail = `{"status":`, `,"report":`, `}`
	report, done := res.Job.Report()
	n := len(head) + len(status) + len(tail)
	if done {
		n += len(mid) + len(report)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	io.WriteString(w, head)
	w.Write(status)
	if done {
		io.WriteString(w, mid)
		w.Write(report)
	}
	io.WriteString(w, tail)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// jobFor resolves {id} or answers 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	data, ok := j.Report()
	if !ok {
		st := j.State()
		if st == StateFailed || st == StateCancelled {
			httpError(w, http.StatusConflict, "job %s is %s; no report", j.ID(), st)
		} else {
			httpError(w, http.StatusConflict, "job %s is %s; report not ready (stream /jobs/%s/events or retry)", j.ID(), st, j.ID())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Simd-Job", j.ID())
	w.Header().Set("X-Simd-Hash", j.Hash())
	w.Write(data)
}

// progressLine is one NDJSON stream record: the per-round update with a
// discriminator. The stream's final record is an endLine instead.
type progressLine struct {
	Type string `json:"type"` // "progress"
	metrics.ProgressUpdate
}

// endLine closes an NDJSON stream with the job's terminal state.
type endLine struct {
	Type  string `json:"type"` // "end"
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	ctx := r.Context()
	cursor := 0
	for {
		events, state, done := j.WaitEvents(ctx, cursor)
		for _, u := range events {
			enc.Encode(progressLine{Type: "progress", ProgressUpdate: u})
		}
		cursor += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			enc.Encode(endLine{Type: "end", State: state, Error: j.Err()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if ctx.Err() != nil {
			return // client went away
		}
	}
}

// handleFlight serves the job's flight recorder: the newest
// Options.FlightRounds rounds of its event history plus terminal state,
// so a failed or cancelled job can be post-mortemed without re-running
// it. Unlike /report it answers in every lifecycle state.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Flight(s.opts.FlightRounds))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID()); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
