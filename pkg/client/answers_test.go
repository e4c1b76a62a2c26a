package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/internal/simdcluster"
	"repro/pkg/client"
)

// TestNon2xxAnswersThroughOneClient drives a real daemon and a real
// router through the one client: every non-2xx answer, whoever wrote it,
// comes back from Call as one *APIError with its status, message and
// Retry-After hint, and from the SDK's methods as their documented error
// (*APIError, *QueueFullError, or a sentinel); a refused connection is no
// answer at all.
func TestNon2xxAnswersThroughOneClient(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The daemon: its one worker held by a long job, its one queue slot
	// taken, so the next distinct spec is refused with 429.
	srv := simd.NewServer(simd.Options{Workers: 1, QueueDepth: 1})
	daemonTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		daemonTS.Close()
		for _, j := range srv.Jobs() {
			srv.Cancel(j.ID())
		}
		srv.Close()
	})
	blocker, err := srv.Submit(simd.JobSpec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, done := blocker.Job.WaitEvents(ctx, 0); done {
		t.Fatal("the blocker settled before it ran")
	}
	queued, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	daemon := client.New(daemonTS.URL)
	drained := simd.NewServer(simd.Options{Workers: 1})
	drained.Close()
	drainedTS := httptest.NewServer(drained.Handler())
	defer drainedTS.Close()

	// Routers: one in front of the daemon, one in front of a member that
	// refuses every job with 429 and no hint, one with no members.
	router := func(members ...string) *client.Client {
		c := simdcluster.New(simdcluster.Options{HealthInterval: 20 * time.Millisecond})
		ts := httptest.NewServer(c.Handler())
		t.Cleanup(func() { ts.Close(); c.Close() })
		for i, base := range members {
			id := fmt.Sprintf("n%d", i+1)
			c.AddMember(id, base, 0)
			if err := c.WaitUp(id, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		return client.New(ts.URL)
	}
	unhinted := http.NewServeMux()
	unhinted.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		simd.WriteJSON(w, http.StatusOK, client.Health{Status: "ok"})
	})
	unhinted.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		simd.WriteError(w, http.StatusTooManyRequests, "busy")
	})
	unhintedTS := httptest.NewServer(unhinted)
	defer unhintedTS.Close()
	viaRouter, viaUnhinted, empty := router(daemonTS.URL), router(unhintedTS.URL), router()

	routed, err := viaRouter.Submit(ctx, tinySpec(1)) // coalesces onto the queued job
	if err != nil || routed.State != client.StateQueued {
		t.Fatalf("routing the queued spec: %+v, %v", routed, err)
	}
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	gone := client.New(closed.URL)
	hint := time.Duration(math.Ceil(srv.RetryAfter().Seconds())) * time.Second

	const badModel = `run: unknown model "nope" (want phold | pcs | epidemic | tandem)`
	notReady := fmt.Sprintf("job %s is queued; report not ready (stream /jobs/%s/events or retry)", queued.Job.ID(), queued.Job.ID())
	bad := map[string]any{"model": "nope"}
	submit := func(c *client.Client) error { _, err := c.Submit(ctx, bad); return err }
	full := func(c *client.Client) error { _, err := c.Submit(ctx, tinySpec(2)); return err }
	status := func(id string) func(*client.Client) error {
		return func(c *client.Client) error { _, err := c.Status(ctx, id); return err }
	}
	report := func(id string) func(*client.Client) error {
		return func(c *client.Client) error { _, err := c.Report(ctx, id); return err }
	}
	for _, row := range []struct {
		name         string
		c            *client.Client
		method, path string
		body         any
		status       int    // 0: no answer
		message      string // the answer's message
		hint         time.Duration
		hinted       bool
		sdk          func(*client.Client) error
		sdkWant      error // a sentinel the SDK's error answers, else nil: the *APIError itself
	}{
		{"400 daemon", daemon, "POST", "/jobs", bad, 400, badModel, 0, false, submit, nil},
		{"400 router", viaRouter, "POST", "/jobs", bad, 400, badModel, 0, false, submit, nil},
		{"404 daemon", daemon, "GET", "/jobs/j999999", nil, 404, "simd: no such job", 0, false, status("j999999"), client.ErrNotFound},
		{"404 router", viaRouter, "GET", "/jobs/c999", nil, 404, `unknown job "c999"`, 0, false, status("c999"), client.ErrNotFound},
		{"409 daemon", daemon, "GET", "/jobs/" + queued.Job.ID() + "/report", nil, 409, notReady, 0, false, report(queued.Job.ID()), client.ErrNotReady},
		{"409 router", viaRouter, "GET", "/jobs/" + routed.ID + "/report", nil, 409,
			"job " + routed.ID + " report: {\n \"error\": \"" + notReady + "\"\n}\n", 0, false, report(routed.ID), client.ErrNotReady},
		{"429 daemon", daemon, "POST", "/jobs", tinySpec(2), 429, "simd: job queue full", hint, true, full, client.ErrQueueFull},
		{"429 router", viaRouter, "POST", "/jobs", tinySpec(2), 429, "every live replica is at capacity", hint, true, full, client.ErrQueueFull},
		{"429 router, no hint", viaUnhinted, "POST", "/jobs", tinySpec(2), 429, "every live replica is at capacity", 0, false, full, client.ErrQueueFull},
		{"503 daemon", client.New(drainedTS.URL), "POST", "/jobs", tinySpec(2), 503, "simd: server closed", 0, false, full, nil},
		{"503 router", empty, "POST", "/jobs", tinySpec(2), 503, "no live replica available (0 members eligible)", 0, false, full, nil},
		{"refused connection", gone, "GET", "/jobs/j1", nil, 0, "", 0, false, status("j1"), nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			err := row.c.Call(ctx, row.method, row.path, row.body, nil)
			var ae *client.APIError
			if row.status == 0 {
				if errors.As(err, &ae) || !client.IsUnreachable(err) {
					t.Fatalf("Call: %v, want an unreachable transport error", err)
				}
				if err := row.sdk(row.c); errors.As(err, &ae) || !client.IsUnreachable(err) {
					t.Fatalf("SDK: %v, want an unreachable transport error", err)
				}
				return
			}
			if !errors.As(err, &ae) {
				t.Fatalf("Call: %v, want an *APIError", err)
			}
			if ae.Status != row.status || ae.Message != row.message || ae.Method != row.method || ae.Path != row.path {
				t.Fatalf("Call: %s %s answered %d %q, want %s %s answered %d %q",
					ae.Method, ae.Path, ae.Status, ae.Message, row.method, row.path, row.status, row.message)
			}
			if d, ok := ae.RetryAfter(); d != row.hint || ok != row.hinted {
				t.Fatalf("Call: hint %v, %v; want %v, %v", d, ok, row.hint, row.hinted)
			}
			if client.IsUnreachable(err) {
				t.Fatal("an answer reads as unreachable")
			}

			err = row.sdk(row.c)
			var qf *client.QueueFullError
			switch {
			case row.status == http.StatusTooManyRequests:
				if !errors.As(err, &qf) || !errors.Is(err, client.ErrQueueFull) {
					t.Fatalf("SDK: %v, want a *QueueFullError", err)
				}
				if qf.Message != row.message || qf.RetryAfter != row.hint || qf.Hinted != row.hinted {
					t.Fatalf("SDK: %+v, want message %q and hint %v, %v", qf, row.message, row.hint, row.hinted)
				}
			case row.status == http.StatusConflict:
				if !errors.Is(err, row.sdkWant) || !strings.Contains(err.Error(), row.message) {
					t.Fatalf("SDK: %v, want %v carrying %q", err, row.sdkWant, row.message)
				}
			default:
				if !errors.As(err, &ae) || ae.Status != row.status || ae.Message != row.message {
					t.Fatalf("SDK: %v, want the %d answer", err, row.status)
				}
				if row.sdkWant != nil && !errors.Is(err, row.sdkWant) {
					t.Fatalf("SDK: %v, want it to answer %v", err, row.sdkWant)
				}
			}
		})
	}
	if st := blocker.Job.State(); client.Terminal(st) {
		t.Fatalf("the blocker settled (%s) while the rows ran, so the queue they saw is unknown", st)
	}
}
