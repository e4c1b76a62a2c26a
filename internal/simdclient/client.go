// Package simdclient is the small HTTP client shared by everything
// that talks to a simd daemon or a simdcluster router: the simtop
// monitor, the cluster's health checks and proxy bookkeeping, the
// public SDK in pkg/client, and the smoke tests' curl-free assertions.
// It deliberately stays generic — callers decode into the wire types
// pkg/client declares — so it imports nothing above the obs metrics
// parser and creates no dependency cycles.
//
// Failures are typed so callers can tell the two very different "it
// didn't work" stories apart: a *StatusError means a reachable server
// answered with a non-2xx status (the daemon is up but unhappy), while
// IsUnreachable reports a transport-level failure — refused connection,
// reset, DNS — meaning nothing answered at all. The simtop banner and
// the cluster health gate branch on exactly this distinction.
package simdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client talks to one daemon or router base URL.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080" (any
	// trailing slash is trimmed by New).
	Base string
	// HTTP is the underlying client; New installs a 10s timeout. Replace
	// it (or zero its Timeout) before streaming endpoints like /events.
	HTTP *http.Client
}

// New returns a client for the given base URL.
func New(base string) *Client {
	return &Client{
		Base: strings.TrimRight(base, "/"),
		HTTP: &http.Client{Timeout: 10 * time.Second},
	}
}

// StatusError is a reachable server's non-2xx answer, whole: the HTTP
// exchange itself worked. Callers that treat certain statuses as
// protocol answers (429 with Retry-After, 409 not-ready) branch on Code
// and read Header and Body.
type StatusError struct {
	Method string
	Path   string
	Code   int
	Header http.Header
	Body   string
}

// Error echoes at most 200 bytes of the body.
func (e *StatusError) Error() string {
	body := strings.TrimSpace(e.Body)
	if body == "" {
		return fmt.Sprintf("%s %s: HTTP %d", e.Method, e.Path, e.Code)
	}
	return fmt.Sprintf("%s %s: HTTP %d: %.200s", e.Method, e.Path, e.Code, body)
}

// IsUnreachable reports whether err is a transport-level failure —
// connection refused or reset, DNS failure, client timeout — rather
// than an HTTP answer (*StatusError) or a body-decode problem. The Go
// HTTP client wraps every transport failure in *url.Error, so that is
// the discriminator. Note a cancelled request context also surfaces
// this way; callers that cancel should check ctx.Err() first.
func IsUnreachable(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// Do issues method on Base+path under ctx and returns the status code,
// the full response body and the headers without interpreting them.
// body is marshalled as JSON ([]byte and json.RawMessage pass through
// verbatim; nil sends no body). A transport failure returns status 0
// and an error for which IsUnreachable is true. Non-2xx statuses are
// NOT errors here — Do is the raw exchange Call builds on.
func (c *Client) Do(ctx context.Context, method, path string, body any) (int, []byte, http.Header, error) {
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
				return 0, nil, nil, err
			}
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer // one buffer, sized from Content-Length when it is known and small
	if n := resp.ContentLength; n >= 0 && n < maxPresize {
		buf.Grow(int(n) + bytes.MinRead) // MinRead: room for the read that sees EOF
	}
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header, err
}

// maxPresize caps what a declared Content-Length reserves up front, so a
// hostile header cannot force a large allocation.
const maxPresize = 1 << 20

// Call is the decoding exchange: Do, then a 2xx answer is decoded into
// v — nil discards it, a *[]byte takes the body verbatim (the shape
// proxies need), a func([]byte) error decodes it itself, anything else is
// decoded as JSON — and every other status is a *StatusError carrying the
// code, the headers and the body.
func (c *Client) Call(ctx context.Context, method, path string, body, v any) error {
	code, data, hdr, err := c.Do(ctx, method, path, body)
	if err != nil {
		return err
	}
	if code < 200 || code > 299 {
		return &StatusError{Method: method, Path: path, Code: code, Header: hdr, Body: string(data)}
	}
	switch v := v.(type) {
	case nil:
	case *[]byte:
		*v = data
	case func([]byte) error:
		err = v(data)
	default:
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("%s %s: HTTP %d with an undecodable answer: %w", method, path, code, err)
	}
	return nil
}

// Metrics fetches and parses Base+/metrics (Prometheus text
// exposition).
func (c *Client) Metrics() (*obs.Snapshot, error) {
	var data []byte
	if err := c.Call(context.TODO(), http.MethodGet, "/metrics", nil, &data); err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(data))
}

// Health is the head of a /healthz document, shared by daemon and
// router (both embed it): enough for gating and attribution.
type Health struct {
	Status string `json:"status"`
	NodeID string `json:"node_id,omitempty"`
}

// Health fetches Base+/healthz. A reachable daemon that answers
// anything but 200 is a *StatusError — health gating wants a hard
// signal, and the monitor wants to render "answered 500" differently
// from "nothing listening".
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.Call(context.TODO(), http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// RetryAfterHint parses a Retry-After header (integer seconds form)
// from h; ok is false when absent or unparseable.
func RetryAfterHint(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Retry runs fn up to attempts times with capped exponential backoff
// (base doubling up to cap between tries), returning the first success
// or the last error. onRetry, when non-nil, observes each failure
// before the sleep — simtop uses it to report poll blips. A daemon that
// is still starting, or mid-restart, shouldn't kill its client on the
// first refused connection.
func Retry(attempts int, base, cap time.Duration, fn func() error, onRetry func(attempt int, err error, delay time.Duration)) error {
	if attempts < 1 {
		attempts = 1
	}
	delay := base
	var err error
	for i := 1; ; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if i >= attempts {
			return err
		}
		if onRetry != nil {
			onRetry(i, err, delay)
		}
		time.Sleep(delay)
		delay *= 2
		if delay > cap {
			delay = cap
		}
	}
}
