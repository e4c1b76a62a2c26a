package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJob is one job in the fake service below.
type fakeJob struct {
	mu       sync.Mutex
	id       string
	state    string
	errMsg   string
	report   []byte
	progress []Progress
	// settled closes when the job reaches a terminal state, releasing
	// any in-flight events streams.
	settled chan struct{}
}

func (j *fakeJob) settle(state, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if Terminal(j.state) {
		return
	}
	j.state = state
	j.errMsg = errMsg
	close(j.settled)
}

func (j *fakeJob) snapshot() (string, string, []Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, append([]Progress(nil), j.progress...)
}

// fakeSimd is an httptest stand-in for the simd wire API: just enough
// protocol to exercise every SDK path, with scriptable admission
// control and job outcomes.
type fakeSimd struct {
	mu   sync.Mutex
	jobs map[string]*fakeJob
	seq  int

	// reject429, while positive, answers each submit with 429 and the
	// given Retry-After header, decrementing per rejection.
	reject429  atomic.Int32
	retryAfter string
	// submits counts submit attempts (including rejected ones).
	submits atomic.Int64
	// waits makes POST /jobs?wait behave as a simd daemon's: the request
	// is held until the job settles and answered with status and report
	// in one document. Off, the fake answers at once with its flat
	// submission, as a simdcluster router does.
	waits bool
	// onSubmit, when non-nil, scripts the new job (settle it, feed
	// progress, leave it running...). Runs on its own goroutine.
	onSubmit func(j *fakeJob)
}

func newFakeSimd() *fakeSimd {
	return &fakeSimd{jobs: map[string]*fakeJob{}, retryAfter: "1"}
}

func (f *fakeSimd) job(id string) *fakeJob {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.jobs[id]
}

func (f *fakeSimd) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		f.submits.Add(1)
		if f.reject429.Load() > 0 {
			f.reject429.Add(-1)
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		f.mu.Lock()
		f.seq++
		j := &fakeJob{id: fmt.Sprintf("job-%d", f.seq), state: StateQueued, settled: make(chan struct{})}
		f.jobs[j.id] = j
		f.mu.Unlock()
		if f.onSubmit != nil {
			go f.onSubmit(j)
		}
		if f.waits && r.URL.Query().Has("wait") {
			// net/http watches for a vanished client only once the request
			// body has been read to its end.
			io.Copy(io.Discard, r.Body)
			select {
			case <-j.settled:
			case <-r.Context().Done():
				return
			}
			state, errMsg, _ := j.snapshot()
			doc := map[string]any{"status": map[string]any{"id": j.id, "state": state, "error": errMsg}}
			if state == StateDone {
				doc["report"] = json.RawMessage(j.report)
			}
			json.NewEncoder(w).Encode(doc)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": j.id, "state": StateQueued})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j := f.job(r.PathValue("id"))
		if j == nil {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		state, errMsg, _ := j.snapshot()
		json.NewEncoder(w).Encode(map[string]any{"id": j.id, "state": state, "error": errMsg})
	})
	mux.HandleFunc("GET /jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		j := f.job(r.PathValue("id"))
		if j == nil {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		state, _, _ := j.snapshot()
		if state != StateDone {
			http.Error(w, `{"error":"report not ready"}`, http.StatusConflict)
			return
		}
		w.Write(j.report)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j := f.job(r.PathValue("id"))
		if j == nil {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		state, _, _ := j.snapshot()
		if Terminal(state) {
			http.Error(w, `{"error":"already finished"}`, http.StatusConflict)
			return
		}
		j.settle(StateCancelled, "")
		json.NewEncoder(w).Encode(map[string]any{"id": j.id, "state": StateCancelled})
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j := f.job(r.PathValue("id"))
		if j == nil {
			http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			return
		}
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		sent := 0
		for {
			state, errMsg, progress := j.snapshot()
			for _, p := range progress[sent:] {
				enc.Encode(struct {
					Type string `json:"type"`
					Progress
				}{Type: "progress", Progress: p})
				sent++
			}
			if flusher != nil {
				flusher.Flush()
			}
			if Terminal(state) {
				enc.Encode(map[string]any{"type": "end", "state": state, "error": errMsg})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			select {
			case <-j.settled:
			case <-r.Context().Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	})
	return mux
}

func start(t *testing.T, f *fakeSimd) *Client {
	t.Helper()
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return New(ts.URL, WithPollInterval(5*time.Millisecond))
}

var spec = map[string]any{"model": "phold", "end_time": 10}

func TestSubmitQueueFullCarriesRetryAfter(t *testing.T) {
	f := newFakeSimd()
	f.retryAfter = "2"
	f.reject429.Store(1)
	c := start(t, f)

	_, err := c.Submit(context.Background(), spec)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit against a full queue returned %v, want ErrQueueFull", err)
	}
	var qf *QueueFullError
	if !errors.As(err, &qf) || !qf.Hinted || qf.RetryAfter != 2*time.Second {
		t.Fatalf("QueueFullError = %+v, want hinted 2s", qf)
	}

	// No header: still ErrQueueFull, but unhinted.
	f.retryAfter = ""
	f.reject429.Store(1)
	_, err = c.Submit(context.Background(), spec)
	if !errors.As(err, &qf) || qf.Hinted {
		t.Fatalf("unhinted 429 = %v, want QueueFullError with Hinted=false", err)
	}
}

func TestSubmitRetryHonorsRetryAfter(t *testing.T) {
	f := newFakeSimd()
	f.retryAfter = "0" // parseable, zero → client substitutes its floor; keep the test fast
	f.reject429.Store(2)
	f.onSubmit = func(j *fakeJob) { j.settle(StateDone, "") }
	c := start(t, f)

	t0 := time.Now()
	sub, err := c.SubmitRetry(context.Background(), spec, 5)
	if err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	if sub.ID == "" || f.submits.Load() != 3 {
		t.Fatalf("submits = %d (want 3: two 429s then accept), sub %+v", f.submits.Load(), sub)
	}
	// Two absorbed rejections at the 1s floor each.
	if elapsed := time.Since(t0); elapsed < 2*time.Second {
		t.Fatalf("SubmitRetry returned after %v; it must sleep between rejected attempts", elapsed)
	}

	// Retries exhausted: the 429 surfaces.
	f.reject429.Store(100)
	if _, err := c.SubmitRetry(context.Background(), spec, 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("exhausted SubmitRetry returned %v, want ErrQueueFull", err)
	}
}

func TestAwaitSettlesDone(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		j.report = []byte(`{"rounds":3}`)
		for i := 1; i <= 3; i++ {
			j.mu.Lock()
			j.state = StateRunning
			j.progress = append(j.progress, Progress{Round: int64(i), GVT: float64(i) * 10})
			j.mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
		j.settle(StateDone, "")
	}
	c := start(t, f)

	st, report, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != StateDone || string(report) != `{"rounds":3}` {
		t.Fatalf("Run settled %+v report %q", st, report)
	}
}

func TestAwaitMapsCancelledAndDeadlineAndFailed(t *testing.T) {
	cases := []struct {
		name   string
		state  string
		errMsg string
		want   error
	}{
		{"cancelled", StateCancelled, "", ErrCancelled},
		{"service deadline", StateFailed, "job deadline (1s) exceeded", ErrDeadline},
		{"plain failure", StateFailed, "spec rejected by engine", nil}, // → *JobFailedError
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeSimd()
			f.onSubmit = func(j *fakeJob) { j.settle(tc.state, tc.errMsg) }
			c := start(t, f)

			sub, err := c.Submit(context.Background(), spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			_, err = c.Await(context.Background(), sub.ID)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("Await returned %v, want %v", err, tc.want)
				}
				return
			}
			var jf *JobFailedError
			if !errors.As(err, &jf) || jf.Status.Error != tc.errMsg {
				t.Fatalf("Await returned %v, want *JobFailedError carrying %q", err, tc.errMsg)
			}
		})
	}
}

func TestAwaitMidStreamCancel(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		j.mu.Lock()
		j.state = StateRunning
		j.progress = append(j.progress, Progress{Round: 1})
		j.mu.Unlock()
		// Stays running until cancelled.
	}
	c := start(t, f)

	sub, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	awaitDone := make(chan error, 1)
	go func() {
		_, err := c.Await(context.Background(), sub.ID)
		awaitDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the await attach to the stream
	if _, err := c.Cancel(context.Background(), sub.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	select {
	case err := <-awaitDone:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("await after mid-stream cancel returned %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await did not settle after cancel")
	}

	// A second cancel races a settled job: ErrFinished.
	if _, err := c.Cancel(context.Background(), sub.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel of a finished job returned %v, want ErrFinished", err)
	}
}

func TestAwaitLocalContextDeadline(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		// Never settles — the client's context has to give up.
	}
	c := start(t, f)

	sub, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err = c.Await(ctx, sub.ID)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await under a local deadline returned %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatal("a local context deadline must NOT read as the service's job deadline")
	}
}

func TestReportAndStatusErrors(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
	}
	c := start(t, f)

	if _, err := c.Status(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status on a missing job returned %v, want ErrNotFound", err)
	}
	if _, err := c.Report(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Report on a missing job returned %v, want ErrNotFound", err)
	}
	sub, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Report(context.Background(), sub.ID); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Report on a running job returned %v, want ErrNotReady", err)
	}
}

func TestStreamDeliversUpdatesThenSettles(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		for i := 1; i <= 5; i++ {
			j.mu.Lock()
			j.state = StateRunning
			j.progress = append(j.progress, Progress{Round: int64(i), GVT: float64(i)})
			j.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		j.settle(StateDone, "")
	}
	c := start(t, f)

	sub, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := c.Stream(context.Background(), sub.ID)
	var rounds []int64
	for p := range s.Updates() {
		rounds = append(rounds, p.Round)
	}
	st, err := s.Wait()
	if err != nil || st.State != StateDone {
		t.Fatalf("Wait: %+v err %v", st, err)
	}
	if len(rounds) != 5 {
		t.Fatalf("got %d progress updates %v, want 5", len(rounds), rounds)
	}
	for i, r := range rounds {
		if r != int64(i+1) {
			t.Fatalf("updates out of order: %v", rounds)
		}
	}
}

func TestStreamWaitWithoutConsuming(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		// More updates than the stream buffer holds: Wait must drain, not
		// deadlock against the feeder.
		for i := 1; i <= 64; i++ {
			j.mu.Lock()
			j.state = StateRunning
			j.progress = append(j.progress, Progress{Round: int64(i)})
			j.mu.Unlock()
		}
		j.settle(StateDone, "")
	}
	c := start(t, f)

	sub, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Stream(context.Background(), sub.ID).Wait()
	if err != nil || st.State != StateDone {
		t.Fatalf("unconsumed Wait: %+v err %v", st, err)
	}
}

func TestBatchSubmitOrderingAndBoundedConcurrency(t *testing.T) {
	var inflight, peak atomic.Int32
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inflight.Add(-1)
		j.report = []byte(`{"ok":true}`)
		j.settle(StateDone, "")
	}
	c := start(t, f)

	const n, workers = 12, 3
	specs := make([]any, n)
	for i := range specs {
		specs[i] = map[string]any{"model": "phold", "seed": i}
	}
	results := c.BatchSubmitAll(context.Background(), specs, BatchOptions{Concurrency: workers, FetchReport: true})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d; BatchSubmitAll must restore input order", i, res.Index)
		}
		if res.Err != nil || res.Job.State != StateDone || string(res.Report) != `{"ok":true}` {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d jobs in flight, want at most %d", p, workers)
	}
	if f.submits.Load() != n {
		t.Fatalf("submits = %d, want %d (exactly one per spec)", f.submits.Load(), n)
	}
}

func TestBatchSubmitCancelledContext(t *testing.T) {
	f := newFakeSimd()
	f.onSubmit = func(j *fakeJob) {
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
	}
	c := start(t, f)

	ctx, cancel := context.WithCancel(context.Background())
	specs := []any{spec, spec, spec, spec}
	ch := c.BatchSubmit(ctx, specs, BatchOptions{Concurrency: 2})
	cancel()
	var got int
	for res := range ch {
		got++
		if res.Err == nil {
			t.Fatalf("result %d succeeded under a cancelled context", res.Index)
		}
	}
	if got != len(specs) {
		t.Fatalf("channel delivered %d results, want exactly %d", got, len(specs))
	}
}

func TestUnreachableServiceSurfacesTransportError(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // nothing listening
	c := New(ts.URL)
	if _, err := c.Submit(context.Background(), spec); err == nil {
		t.Fatal("submit against a dead service must error")
	} else if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrNotFound) {
		t.Fatalf("transport failure mapped to a protocol error: %v", err)
	}
}

// TestAwaitErrorBodyInTwoWrites: an error document that reaches the
// client in two reads must still be parsed whole — the APIError carries
// the service's message, not the first half of its JSON. A 404 on the
// stream alone is not final (a router serves no stream); the status
// poll that follows is what reports the job gone.
func TestAwaitErrorBodyInTwoWrites(t *testing.T) {
	const msg = "no such job j000042 (it may have been evicted)"
	body, _ := json.Marshal(map[string]string{"error": msg})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs/j000042/events" && r.URL.Path != "/jobs/j000042" {
			t.Errorf("unexpected request %s", r.URL.Path)
		}
		w.WriteHeader(http.StatusNotFound)
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond) // let the client's first Read return
		w.Write(body[len(body)/2:])
	}))
	defer ts.Close()

	_, err := New(ts.URL).Await(context.Background(), "j000042")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !errors.Is(err, ErrNotFound) {
		t.Fatalf("Await returned %v, want a 404 *APIError", err)
	}
	if apiErr.Message != msg {
		t.Errorf("APIError.Message = %q, want the full message %q", apiErr.Message, msg)
	}
}
