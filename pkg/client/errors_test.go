package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestErrorStringsAndSentinelMapping(t *testing.T) {
	qf := &QueueFullError{RetryAfter: 3 * time.Second, Hinted: true, Message: "queue full"}
	if s := qf.Error(); !strings.Contains(s, "3s") || !strings.Contains(s, "queue full") {
		t.Errorf("hinted QueueFullError.Error() = %q", s)
	}
	if s := (&QueueFullError{Message: "busy"}).Error(); strings.Contains(s, "retry after") {
		t.Errorf("unhinted QueueFullError.Error() mentions a hint: %q", s)
	}
	if !errors.Is(qf, ErrQueueFull) || errors.Is(qf, ErrNotFound) {
		t.Error("QueueFullError sentinel mapping wrong")
	}

	ae := &APIError{Status: 404, Message: "no such job"}
	if s := ae.Error(); !strings.Contains(s, "404") || !strings.Contains(s, "no such job") {
		t.Errorf("APIError.Error() = %q", s)
	}
	if !errors.Is(ae, ErrNotFound) {
		t.Error("a 404 APIError must answer ErrNotFound")
	}
	if errors.Is(&APIError{Status: 400}, ErrNotFound) {
		t.Error("a 400 APIError must not answer ErrNotFound")
	}

	jf := &JobFailedError{Status: JobStatus{ID: "j1", Error: "engine panic"}}
	if s := jf.Error(); !strings.Contains(s, "j1") || !strings.Contains(s, "engine panic") {
		t.Errorf("JobFailedError.Error() = %q", s)
	}
}

func TestTerminalErrMapping(t *testing.T) {
	if err := terminalErr(JobStatus{ID: "a", State: StateDone}); err != nil {
		t.Errorf("done → %v, want nil", err)
	}
	if err := terminalErr(JobStatus{ID: "a", State: StateCancelled}); !errors.Is(err, ErrCancelled) {
		t.Errorf("cancelled → %v", err)
	}
	if err := terminalErr(JobStatus{ID: "a", State: StateFailed, Error: "job deadline (1s) exceeded"}); !errors.Is(err, ErrDeadline) {
		t.Errorf("deadline failure → %v", err)
	}
	var jf *JobFailedError
	if err := terminalErr(JobStatus{ID: "a", State: StateFailed, Error: "boom"}); !errors.As(err, &jf) {
		t.Errorf("plain failure → %v", err)
	}
	if err := terminalErr(JobStatus{ID: "a", State: StateRunning}); err == nil {
		t.Error("terminalErr on a non-terminal state must error")
	}
}

func TestApiMessageFallsBackToRawBody(t *testing.T) {
	if got := apiMessage([]byte(`{"error":"told you"}`)); got != "told you" {
		t.Errorf("JSON body → %q", got)
	}
	if got := apiMessage([]byte("  plain text 500 page\n")); got != "plain text 500 page" {
		t.Errorf("raw body → %q", got)
	}
	if got := apiMessage(nil); got != "" {
		t.Errorf("empty body → %q", got)
	}
}

func TestTerminalAndStates(t *testing.T) {
	for _, st := range []string{StateDone, StateFailed, StateCancelled} {
		if !Terminal(st) {
			t.Errorf("Terminal(%q) = false", st)
		}
	}
	for _, st := range []string{StateQueued, StateRunning, ""} {
		if Terminal(st) {
			t.Errorf("Terminal(%q) = true", st)
		}
	}
}

func TestOptionsAndBase(t *testing.T) {
	h := &http.Client{}
	c := New("http://example.test/", WithHTTPClient(h), WithPollInterval(time.Second), WithPollInterval(0))
	if c.Base() != "http://example.test" {
		t.Errorf("Base() = %q (trailing slash must be trimmed)", c.Base())
	}
	if c.http != h {
		t.Error("WithHTTPClient did not install the client")
	}
	if c.poll != time.Second {
		t.Errorf("poll = %v; WithPollInterval(0) must be ignored", c.poll)
	}
}

func TestTruncateLine(t *testing.T) {
	if got := truncateLine([]byte("short")); got != "short" {
		t.Errorf("short line → %q", got)
	}
	long := strings.Repeat("x", 300)
	if got := truncateLine([]byte(long)); len(got) != 123 || !strings.HasSuffix(got, "...") {
		t.Errorf("long line → %d bytes %q...", len(got), got[:20])
	}
}

func TestAwaitFallsBackToPollingWhenStreamBreaks(t *testing.T) {
	// An events endpoint that dies mid-stream without an end record;
	// status polling must settle the await anyway.
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"type":"progress","round":1}` + "\n"))
		// Connection closes with no end record: a broken stream.
	})
	mux.HandleFunc("GET /jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) < 3 {
			w.Write([]byte(`{"id":"j1","state":"running"}`))
			return
		}
		w.Write([]byte(`{"id":"j1","state":"done"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithPollInterval(2*time.Millisecond))
	st, err := c.Await(context.Background(), "j1")
	if err != nil || st.State != StateDone {
		t.Fatalf("Await over a broken stream: %+v err %v", st, err)
	}
	if polls.Load() < 3 {
		t.Fatalf("await settled after %d polls; the poll fallback never engaged", polls.Load())
	}
}

func TestStreamEventsRejectsGarbageAndErrorStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/bad/events", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("this is not json\n"))
	})
	mux.HandleFunc("GET /jobs/gone/events", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	err := c.streamEvents(context.Background(), "bad", nil)
	if err == nil || !strings.Contains(err.Error(), "bad stream record") {
		t.Fatalf("garbage stream → %v", err)
	}
	if err := c.streamEvents(context.Background(), "gone", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("404 stream → %v, want ErrNotFound", err)
	}
}

func TestStreamOnMissingJobSettlesNotFound(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	c := New(ts.URL)

	s := c.Stream(context.Background(), "nope")
	for range s.Updates() {
	}
	if _, err := s.Wait(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stream on a missing job settled %v, want ErrNotFound", err)
	}
}

func TestStreamCancelledContext(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"type":"progress","round":1}` + "\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	c := New(ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	s := c.Stream(ctx, "j1")
	<-s.Updates() // first update arrived; the stream is live
	cancel()
	if _, err := s.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Stream settled %v, want context.Canceled", err)
	}
}

func TestSubmitRejectsUndecodableAnswerAndBadSpec(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	var ae *APIError
	_, err := c.Submit(context.Background(), map[string]any{"model": "nope"})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Message != "bad spec" {
		t.Fatalf("bad spec → %v", err)
	}
	// A spec that cannot marshal never leaves the client.
	if _, err := c.Submit(context.Background(), func() {}); err == nil {
		t.Fatal("unmarshalable spec must error client-side")
	}
}

func TestCancelStatusAndRunErrorPaths(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("DELETE /jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"j1","state":"cancelled"}`))
	})
	mux.HandleFunc("DELETE /jobs/gone", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)

	st, err := c.Cancel(context.Background(), "j1")
	if err != nil || st.State != StateCancelled {
		t.Fatalf("Cancel: %+v err %v", st, err)
	}
	if _, err := c.Cancel(context.Background(), "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel of a missing job → %v", err)
	}

	// Run surfaces the submit failure as-is.
	tsDown := httptest.NewServer(http.NotFoundHandler())
	tsDown.Close()
	if _, _, err := New(tsDown.URL).Run(context.Background(), map[string]any{}); err == nil {
		t.Fatal("Run against a dead service must error")
	}
}
