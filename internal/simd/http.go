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

	"repro/internal/obs"
	"repro/pkg/client"
)

// MaxSpecBytes bounds a submitted spec document, at the daemon and at the
// router; anything larger is a client error, not a simulation.
const MaxSpecBytes = 1 << 20

// status snapshots a job as the job API's document (client.JobStatus).
func (j *Job) status() client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	last := j.lastRound()
	return client.JobStatus{
		ID: j.id, Hash: j.hash, State: j.state, CacheHit: j.cacheHit,
		StoreHit: j.storeHit,
		Deduped:  j.deduped, Rounds: int(j.rounds), Error: j.errMsg,
		GVT: last.GVT, Efficiency: last.Efficiency,
		SubmittedAt: j.submitted,
		StartedAt:   optTime(&j.started),
		FinishedAt:  optTime(&j.finished),
	}
}

// Handler returns the daemon's HTTP API. DESIGN.md ("Job API contract")
// owns the route table and the documents; pkg/client declares them.
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
	client.Health           // NodeID is the daemon's stable cluster identity (Options.NodeID)
	Build         obs.Build `json:"build"`
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// StoreDir is set when a persistent store is configured.
	StoreDir string `json:"store_dir,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Health: client.Health{Status: "ok", NodeID: s.opts.NodeID},
		Build:  obs.ReadBuild(), StartedAt: s.started, UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if st := s.opts.Store; st != nil {
		resp.StoreDir = st.Dir()
		if st.Degraded() {
			resp.Status = "degraded"
		}
	}
	WriteJSON(w, http.StatusOK, resp)
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

// WriteError answers code with the job API's uniform error body; the
// daemon and the router both write their refusals through it.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, client.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// jsonType is the Content-Type every JSON answer shares (Header.Set allocates).
var jsonType = []string{"application/json"}

// WriteJSON answers code with v as the job API indents its documents.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait, err := waitParam(r.URL)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.submitBody(r.Body)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Tell the client when retrying is worth it: the estimated queue
		// drain time. Integer seconds, as RFC 9110 specifies.
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(s.RetryAfter().Seconds()))))
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
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
	WriteJSON(w, code, res.response())
}

// waitParam reads the submit route's wait parameter: bare (?wait) or a
// true value asks for the held answer, a false value (?wait=0) for the
// ordinary one, and anything else is a bad request rather than a guess.
// The two queries clients send are read without parsing.
func waitParam(u *url.URL) (bool, error) {
	if u.RawQuery == "" || u.RawQuery == "wait" {
		return u.RawQuery != "", nil
	}
	q := u.Query()
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
func (r SubmitResult) response() client.Submission {
	return client.Submission{JobStatus: r.Job.status(), CacheHitNow: r.CacheHit, DedupedNow: r.Deduped}
}

// answerSettled is the second half of POST /jobs?wait: hold the request
// until the admitted job settles, then answer the whole round trip in
// one document — the submission in its terminal state and, for a done
// job, the report. The report goes out as the stored bytes, the same
// ones /jobs/{id}/report serves, spliced into the envelope rather than
// passed through an encoder. A client that goes away abandons only the
// request: the job runs on and its result is cached as usual. The layout
// is load-bearing: pkg/client decodes exactly it in one scan, anything
// else on a slower path (TestDaemonAnswersTakeOneScan).
func (s *Server) answerSettled(w http.ResponseWriter, r *http.Request, res SubmitResult) {
	if !client.Terminal(res.Job.Wait(r.Context())) {
		return // client went away; nobody is left to answer
	}
	status, err := json.Marshal(res.response())
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	const head, mid, tail = `{"status":`, `,"report":`, `}`
	report, done := res.Job.Report()
	n := len(head) + len(status) + len(tail)
	if done {
		n += len(mid) + len(report)
	}
	w.Header()["Content-Type"] = jsonType
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
	out := make([]client.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// jobFor resolves {id} or answers 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		WriteJSON(w, http.StatusOK, j.status())
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
			WriteError(w, http.StatusConflict, "job %s is %s; no report", j.ID(), st)
		} else {
			WriteError(w, http.StatusConflict, "job %s is %s; report not ready (stream /jobs/%s/events or retry)", j.ID(), st, j.ID())
		}
		return
	}
	w.Header()["Content-Type"] = jsonType
	w.Header().Set("X-Simd-Job", j.ID())
	w.Header().Set("X-Simd-Hash", j.Hash())
	w.Write(data)
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
		for i := range events {
			// The conversion is the drift check: it compiles only while the
			// engine's record and the contract's have the same fields.
			enc.Encode(client.EventLine{Type: "progress", Progress: (*client.Progress)(&events[i])})
		}
		cursor += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			enc.Encode(client.EventLine{Type: "end", State: state, Error: j.Err()})
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

// flightRounds is the length of the tail of a job's event history that
// /jobs/{id}/flight serves: the most recent per-GVT-round progress
// snapshots, for post-mortems.
const flightRounds = 64

// handleFlight serves the job's flight recorder: the newest flightRounds
// rounds of its event history plus terminal state, so a failed or
// cancelled job can be post-mortemed without re-running it. Unlike
// /report it answers in every lifecycle state.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Flight(flightRounds))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID()); err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
