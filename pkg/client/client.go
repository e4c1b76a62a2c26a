// Package client is the public Go SDK for the simd simulation service.
// It speaks the wire protocol served by cmd/simd and — identically —
// by the cmd/simdcluster router: submit a job spec, await it under a
// context, stream per-GVT-round NDJSON progress, fetch the canonical
// run report, cancel, all with typed errors, plus bounded-concurrency
// batch submission returning results on a channel.
//
// Because the engine is deterministic and results are content-addressed
// by canonical spec hash, a submission can be answered three ways, all
// surfaced on the Submission document: executed for real, served from
// the result cache/persistent store (CacheHitNow/StoreHit), or
// coalesced onto an identical in-flight job (DedupedNow).
//
// Minimal round trip:
//
//	c := client.New("http://127.0.0.1:8080")
//	st, report, err := c.Run(ctx, map[string]any{"model": "phold", "end_time": 50})
//
// Backpressure is a protocol answer, not a failure: a full queue comes
// back as *QueueFullError carrying the server's parsed Retry-After
// hint. SubmitRetry, Run and BatchSubmit honor it automatically.
//
// Run is one HTTP exchange against a daemon (POST /jobs?wait answers
// with the terminal status and the report together); Submit, Await,
// Stream and Report are the separate steps, for callers that want
// progress while the job runs.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
)

// Job lifecycle states, as they appear in JobStatus.State. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                      (cancelled before pickup)
//
// Cache hits are born done.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether a state is settled: done, failed or
// cancelled.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the service's job document. This package owns the job
// API's wire documents: the daemon encodes these declarations, the
// router decodes and embeds them, and every client reads them.
type JobStatus struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State string `json:"state"`
	// CacheHit marks a job that was born done from the result cache;
	// StoreHit narrows it to the persistent store (it survived a restart
	// or was computed by a sibling daemon).
	CacheHit bool `json:"cache_hit"`
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

// Submission is a submit answer: the job document plus how THIS
// submission was satisfied (for a deduped or cache-hit submission the
// job itself may predate it).
type Submission struct {
	JobStatus
	CacheHitNow bool `json:"cache_hit_now"`
	DedupedNow  bool `json:"deduped_now"`
}

// Progress is one per-GVT-round update from the events stream. All
// quantities are cumulative since run start and purely virtual-time. The
// daemon converts the engine's own record (metrics.ProgressUpdate) to
// this type, which stops compiling when the two drift.
type Progress struct {
	Round      int64   `json:"round"`
	GVT        float64 `json:"gvt"`
	AtNanos    int64   `json:"at_ns"`
	Sync       bool    `json:"sync"`
	Efficiency float64 `json:"efficiency"`
	Processed  int64   `json:"processed"`
	Committed  int64   `json:"committed"`
	Rollbacks  int64   `json:"rollbacks"`
	RolledBack int64   `json:"rolled_back"`
	Migrations int64   `json:"migrations"`
}

// EventLine is one NDJSON record of /jobs/{id}/events: a "progress"
// record carries the round's Progress, the closing "end" record the
// job's terminal State and Error.
type EventLine struct {
	Type  string `json:"type"` // "progress" | "end"
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	*Progress
}

// ErrorBody is the body of every non-2xx answer.
type ErrorBody struct {
	Error string `json:"error"`
}

// Health is the head of a /healthz document, shared by daemon and
// router (both embed it): enough for gating and attribution.
type Health struct {
	Status string `json:"status"`
	NodeID string `json:"node_id,omitempty"`
}

// Client talks to one simd daemon or simdcluster router.
type Client struct {
	base string
	http *http.Client
	poll time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client. Leave its Timeout
// zero: request lifetimes are governed by the contexts you pass, and
// the events stream legitimately outlives any fixed deadline.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithPollInterval sets the status poll interval Await falls back to
// when the events stream is unavailable (default 150ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// New returns a client for the given base URL, e.g.
// "http://127.0.0.1:8080".
func New(base string, opts ...Option) *Client {
	// No global timeout: per-request contexts govern lifetimes, and the
	// events stream runs for as long as the simulation does.
	c := &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}, poll: 150 * time.Millisecond}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the service root URL this client talks to.
func (c *Client) Base() string { return c.base }

// Submit posts one job spec. spec is marshalled as JSON ([]byte and
// json.RawMessage pass through verbatim), so callers may hand over a
// struct, a map, or raw bytes. A full queue returns *QueueFullError
// (errors.Is ErrQueueFull) carrying the parsed Retry-After hint; other
// non-2xx answers return *APIError.
func (c *Client) Submit(ctx context.Context, spec any) (Submission, error) {
	return c.SubmitRetry(ctx, spec, 0)
}

// Call is the job API's one HTTP exchange: method on Base()+path under
// ctx, body marshalled as JSON ([]byte and json.RawMessage pass through
// verbatim; nil sends none), and a 2xx answer decoded into v — nil
// discards it, a *[]byte takes the body verbatim (the shape proxies
// need), anything else is decoded as JSON. Every other status is an
// *APIError carrying the whole answer; a transport failure is an error
// for which IsUnreachable is true. The SDK's methods, the router's
// proxying and the monitors all make it.
func (c *Client) Call(ctx context.Context, method, path string, body, v any) error {
	return c.exchange(ctx, method, path, body, func(data []byte) error {
		switch v := v.(type) {
		case nil:
		case *[]byte:
			*v = data
		default:
			return json.Unmarshal(data, v)
		}
		return nil
	})
}

// exchange is Call with the decoding step given: decode reads a 2xx
// answer's body. decode is only called, never kept: a closure costs no
// allocation.
func (c *Client) exchange(ctx context.Context, method, path string, body any, decode func([]byte) error) error {
	var rd io.Reader
	if body != nil {
		var payload []byte
		switch b := body.(type) {
		case []byte:
			payload = b
		case json.RawMessage:
			payload = b
		default:
			var err error
			if payload, err = json.Marshal(body); err != nil {
				return err
			}
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header["Content-Type"] = jsonType
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer // one buffer, sized from Content-Length when it is known and small
	if n := resp.ContentLength; n >= 0 && n < maxPresize {
		buf.Grow(int(n) + bytes.MinRead) // MinRead: room for the read that sees EOF
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if code := resp.StatusCode; code < 200 || code > 299 {
		return newAPIError(method, path, code, resp.Header, buf.Bytes())
	}
	if err := decode(buf.Bytes()); err != nil {
		return fmt.Errorf("%s %s: HTTP %d with an undecodable answer: %w", method, path, resp.StatusCode, err)
	}
	return nil
}

// maxPresize caps what a declared Content-Length reserves up front, so a
// hostile header cannot force a large allocation.
const maxPresize = 1 << 20

// jsonType is the Content-Type every request body shares (Header.Set allocates).
var jsonType = []string{"application/json"}

// IsUnreachable reports whether err is a transport-level failure —
// connection refused or reset, DNS failure, client timeout — rather
// than an answer (*APIError) or a body-decode problem. The Go HTTP
// client wraps every transport failure in *url.Error, so that is the
// discriminator. A cancelled request context also surfaces this way;
// callers that cancel should check ctx.Err() first.
func IsUnreachable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// Health fetches /healthz. A reachable service that answers anything
// but 200 is an *APIError: health gating wants a hard signal, and the
// monitor renders "answered 500" differently from "nothing listening".
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.Call(context.Background(), http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches and parses /metrics (Prometheus text exposition).
func (c *Client) Metrics() (*obs.Snapshot, error) {
	var data []byte
	if err := c.Call(context.Background(), http.MethodGet, "/metrics", nil, &data); err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(data))
}

// call runs one exchange (Call) and maps a failure through apiErr.
func (c *Client) call(ctx context.Context, op, method, path string, body, v any, on409 error) error {
	return apiErr(op, c.Call(ctx, method, path, body, v), on409)
}

// apiErr is the one place an exchange's failure becomes the SDK's typed
// errors: 429 is *QueueFullError with the parsed Retry-After hint, 409 is
// on409 where the route gives it a meaning (ErrNotReady on /report,
// ErrFinished on DELETE), every other status the *APIError itself; an
// exchange that got no answer, or an undecodable one, keeps its cause.
func apiErr(op string, err, on409 error) error {
	if err == nil {
		return nil
	}
	var ae *APIError // after the nil check: errors.As moves it to the heap
	if !errors.As(err, &ae) {
		return fmt.Errorf("client: %s: %w", op, err)
	}
	switch {
	case ae.Status == http.StatusTooManyRequests:
		ra, ok := ae.RetryAfter()
		return &QueueFullError{RetryAfter: ra, Hinted: ok, Message: ae.Message}
	case ae.Status == http.StatusConflict && on409 != nil:
		return fmt.Errorf("client: %s: %s: %w", op, ae.Message, on409)
	}
	return ae
}

// SubmitRetry submits, absorbing up to retries ErrQueueFull answers by
// honoring the server's Retry-After hint between attempts (capped at
// 15s; one second when the server sent no hint). Any other error
// returns immediately.
func (c *Client) SubmitRetry(ctx context.Context, spec any, retries int) (Submission, error) {
	var sub Submission
	err := absorbQueueFull(ctx, retries, func() error {
		return c.call(ctx, "submit", http.MethodPost, "/jobs", spec, &sub, nil)
	})
	return sub, err
}

// refusal reports whether err is the server's answer to a submission —
// a typed refusal — rather than an exchange that failed on the way.
func refusal(err error) bool {
	var api *APIError
	var qf *QueueFullError
	return errors.As(err, &api) || errors.As(err, &qf)
}

// absorbQueueFull calls attempt until it returns anything but a
// queue-full refusal, sleeping out the server's hint between tries, at
// most retries times.
func absorbQueueFull(ctx context.Context, retries int, attempt func() error) error {
	const hintCap = 15 * time.Second
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return nil
		}
		var qf *QueueFullError
		if !errors.As(err, &qf) || n >= retries {
			return err
		}
		d := qf.RetryAfter
		if !qf.Hinted || d <= 0 {
			d = time.Second
		}
		d = min(d, hintCap)
		if err := sleepCtx(ctx, d); err != nil {
			return err
		}
	}
}

// Status fetches one job's current document. errors.Is(err,
// ErrNotFound) identifies a vanished job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, "status "+id, http.MethodGet, "/jobs/"+id, nil, &st, nil)
	return st, err
}

// Report fetches the canonical run report bytes. 409 before the job is
// done maps to ErrNotReady (await first); for failed or cancelled jobs
// there is no report, ever.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	var data []byte
	err := c.call(ctx, "report "+id, http.MethodGet, "/jobs/"+id+"/report", nil, &data, ErrNotReady)
	return data, err
}

// Cancel requests cancellation: queued jobs settle instantly, running
// jobs abort at the kernel's next dispatch boundary. A job already in a
// terminal state answers ErrFinished.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, "cancel "+id, http.MethodDelete, "/jobs/"+id, nil, &st, ErrFinished)
	return st, err
}

// Await blocks until the job settles or ctx expires, following the
// events stream when it can and falling back to status polls when the
// stream breaks or is not served (a daemon restart, a buffering proxy, a
// simdcluster router). It returns the terminal document plus the outcome
// error contract: nil for done, ErrCancelled, ErrDeadline, or
// *JobFailedError. A job that is really gone answers ErrNotFound from
// the poll. A local ctx expiry returns ctx's error — the job may still
// be running server-side.
func (c *Client) Await(ctx context.Context, id string) (JobStatus, error) {
	if err := c.streamEvents(ctx, id, nil); err != nil && ctx.Err() != nil {
		return JobStatus{}, fmt.Errorf("client: await %s: %w", id, ctx.Err())
	}
	// End record seen, or no usable stream with a live context: the poll
	// settles the terminal document either way.
	return c.awaitPoll(ctx, id)
}

// awaitPoll polls the status document until the job settles.
func (c *Client) awaitPoll(ctx context.Context, id string) (JobStatus, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return JobStatus{}, fmt.Errorf("client: await %s: %w", id, ctx.Err())
			}
			return JobStatus{}, err
		}
		if Terminal(st.State) {
			return st, terminalErr(st)
		}
		if err := sleepCtx(ctx, c.poll); err != nil {
			return st, fmt.Errorf("client: await %s: %w", id, err)
		}
	}
}

// settled is the answer to POST /jobs?wait. A simd daemon holds the
// request until the job settles and answers {"status", "report"}; a
// simdcluster router does not wait and answers its ordinary flat
// submission document, which lands in the embedded Submission.
type settled struct {
	Submission
	Status *Submission     `json:"status"`
	Report json.RawMessage `json:"report"`
}

// job is the job document of either shape.
func (a settled) job() JobStatus {
	if a.Status != nil {
		return a.Status.JobStatus
	}
	return a.JobStatus
}

// decodeSettled decodes a POST /jobs?wait answer as json.Unmarshal into a
// settled does: in one scan (oneScan) when it has the layout a daemon
// writes, through json.Unmarshal when it has any other.
func decodeSettled(data []byte) (settled, error) {
	if ans, ok := oneScan(data); ok {
		return ans, nil
	}
	var ans settled // here, off the one-scan path: Unmarshal moves it to the heap
	err := json.Unmarshal(data, &ans)
	return ans, err
}

// oneScan decodes answerSettled's layout, {"status":S} or {"status":S,"report":R}:
// S, an object, by json.Unmarshal over the span scanValue finds; R checked by
// scanValue and sliced out of data. It is false for anything else — a router's
// flat answer, reordered or extra members, a part that fails or nests too deep.
func oneScan(data []byte) (ans settled, ok bool) {
	if !bytes.HasPrefix(data, []byte(`{"status":{`)) || data[len(data)-1] != '}' {
		return ans, false
	}
	body := data[len(`{"status":`) : len(data)-1]
	end := scanValue(body, 0, scanDepth)
	if end < 0 {
		return ans, false
	}
	if tail := body[end:]; len(tail) > 0 {
		report, ok := bytes.CutPrefix(tail, []byte(`,"report":`))
		report = bytes.Trim(report, " \t\r\n") // as a json.RawMessage holds it
		if !ok || scanValue(report, 0, scanDepth) != len(report) {
			return ans, false
		}
		ans.Report = report
	}
	ans.Status = new(Submission)
	return ans, json.Unmarshal(body[:end], ans.Status) == nil
}

// Run is the whole round trip in one exchange: it posts the spec to
// /jobs?wait (absorbing up to 8 queue-full answers exactly as
// SubmitRetry does) and a simd daemon answers with the terminal
// document and the report together. An answer that is not terminal or
// carries no report — a router's — is carried on from the returned id
// with Await and Report. So is a held request that breaks under a live
// ctx (a daemon restart, a proxy's idle timeout): the job may well be
// running, and submitting the spec again is idempotent — it lands on
// the in-flight job or its cached result — and gives back the id to
// follow. The returned status is valid whenever the submission
// succeeded, even when the outcome error (the Await contract) is
// non-nil.
func (c *Client) Run(ctx context.Context, spec any) (JobStatus, []byte, error) {
	var ans settled
	decode := func(data []byte) (err error) { ans, err = decodeSettled(data); return }
	err := absorbQueueFull(ctx, 8, func() error {
		return apiErr("submit", c.exchange(ctx, http.MethodPost, "/jobs?wait", spec, decode), nil)
	})
	if err != nil && !refusal(err) && ctx.Err() == nil {
		ans = settled{}
		ans.Submission, err = c.SubmitRetry(ctx, spec, 8)
	}
	if err != nil {
		return JobStatus{}, nil, err
	}
	st := ans.job()
	if Terminal(st.State) {
		err = terminalErr(st)
	} else {
		st, err = c.Await(ctx, st.ID)
	}
	if err != nil {
		return st, nil, err
	}
	if ans.Report != nil {
		return st, ans.Report, nil
	}
	report, err := c.Report(ctx, st.ID)
	return st, report, err
}

// sleepCtx sleeps d or returns ctx's error, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// streamEvents follows the job's NDJSON stream, invoking fn (when
// non-nil) per progress record, and returns nil once the end record
// arrives. A non-nil fn error aborts the stream and is returned as-is.
func (c *Client) streamEvents(ctx context.Context, id string, fn func(Progress) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: events %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// At most 64 KiB of an error body, however many writes it arrives in.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return apiErr("events "+id, newAPIError(http.MethodGet, "/jobs/"+id+"/events", resp.StatusCode, resp.Header, data), nil)
	}
	return followEvents(resp.Body, id, fn)
}

// followEvents reads an events stream record by record until its end
// record; a stream that stops short of one, or holds a record that is
// not an EventLine, is an error.
func followEvents(r io.Reader, id string, fn func(Progress) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev EventLine
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: events %s: bad stream record %q: %w", id, truncateLine(line), err)
		}
		switch ev.Type {
		case "progress":
			if fn != nil && ev.Progress != nil {
				if err := fn(*ev.Progress); err != nil {
					return err
				}
			}
		case "end":
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: events %s: stream broke: %w", id, err)
	}
	return fmt.Errorf("client: events %s: stream ended without an end record", id)
}

func truncateLine(b []byte) string {
	const max = 120
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
