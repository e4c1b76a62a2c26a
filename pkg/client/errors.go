package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Sentinel errors. Match them with errors.Is; the structured errors
// below carry the details and answer Is for the matching sentinel, so
//
//	var qf *client.QueueFullError
//	if errors.Is(err, client.ErrQueueFull) { ... }      // branch
//	if errors.As(err, &qf) { wait(qf.RetryAfter) }      // details
//
// both work on the same returned error.
var (
	// ErrQueueFull: the service's admission control refused the
	// submission (HTTP 429). The *QueueFullError carries the parsed
	// Retry-After hint.
	ErrQueueFull = errors.New("client: queue full")
	// ErrNotFound: no job with that id (HTTP 404) — including a job that
	// evaporated because the daemon restarted.
	ErrNotFound = errors.New("client: job not found")
	// ErrCancelled: the awaited job settled as cancelled.
	ErrCancelled = errors.New("client: job cancelled")
	// ErrDeadline: the awaited job was failed by the service's per-job
	// wall-clock deadline (simd -job-deadline). A *local* context
	// deadline during an await surfaces as context.DeadlineExceeded
	// instead — the job may still be running server-side.
	ErrDeadline = errors.New("client: job wall-clock deadline exceeded")
	// ErrNotReady: the report was requested before the job finished
	// (HTTP 409 on /report).
	ErrNotReady = errors.New("client: report not ready")
	// ErrFinished: cancel arrived after the job reached a terminal state
	// (HTTP 409 on DELETE).
	ErrFinished = errors.New("client: job already finished")
)

// QueueFullError is a 429 admission-control answer. RetryAfter is the
// server's estimate of the queue drain time; Hinted is false when the
// server sent no parseable Retry-After header (RetryAfter is then 0 and
// the caller picks its own backoff).
type QueueFullError struct {
	RetryAfter time.Duration
	Hinted     bool
	Message    string
}

func (e *QueueFullError) Error() string {
	if e.Hinted {
		return fmt.Sprintf("client: queue full (retry after %s): %s", e.RetryAfter, e.Message)
	}
	return "client: queue full: " + e.Message
}

func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// APIError is a non-2xx answer from the service, whole: bad spec (400),
// not found (404), not ready (409), queue full (429), draining (503).
// Call returns every such answer as one; the SDK's methods return it for
// every status but 429 (*QueueFullError) and the 409s they give a
// sentinel. The router builds its own refusals as one too. It answers
// errors.Is(err, ErrNotFound) for 404s.
type APIError struct {
	Method string // the request answered ("" for a refusal being written)
	Path   string
	Status int
	Header http.Header
	// Body is the answer's raw body; Message is its ErrorBody message, or
	// the trimmed body when it is not one.
	Body    string
	Message string
}

// newAPIError is the answer code, with hdr and data, to method on path.
func newAPIError(method, path string, code int, hdr http.Header, data []byte) *APIError {
	return &APIError{Method: method, Path: path, Status: code, Header: hdr, Body: string(data), Message: apiMessage(data)}
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: service answered HTTP %d: %s", e.Status, e.Message)
}

func (e *APIError) Is(target error) bool {
	return target == ErrNotFound && e.Status == 404
}

// RetryAfter parses the answer's Retry-After header (the integer seconds
// form); ok is false when it is absent or unparseable.
func (e *APIError) RetryAfter() (d time.Duration, ok bool) {
	secs, err := strconv.Atoi(e.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// JobFailedError is a job that settled as failed for a reason other
// than the service deadline; Status carries the full terminal document
// including the server's error message.
type JobFailedError struct {
	Status JobStatus
}

func (e *JobFailedError) Error() string {
	return fmt.Sprintf("client: job %s failed: %s", e.Status.ID, e.Status.Error)
}

// terminalErr maps a terminal job document to the SDK error contract:
// nil for done, ErrCancelled, ErrDeadline (the server's wall-clock
// deadline message is the discriminator, matching simd's execute path),
// or *JobFailedError for everything else.
func terminalErr(st JobStatus) error {
	switch st.State {
	case StateDone:
		return nil
	case StateCancelled:
		return fmt.Errorf("client: job %s: %w", st.ID, ErrCancelled)
	case StateFailed:
		if strings.Contains(st.Error, "deadline") {
			return fmt.Errorf("client: job %s: %s: %w", st.ID, st.Error, ErrDeadline)
		}
		return &JobFailedError{Status: st}
	}
	return fmt.Errorf("client: job %s is still %s", st.ID, st.State)
}

// apiMessage extracts the service's ErrorBody message, falling back to
// the raw body for non-JSON answers.
func apiMessage(data []byte) string {
	var doc ErrorBody
	if json.Unmarshal(data, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(data))
}
