package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/pkg/client"
)

// syncCounts tallies fsyncs per file kind: the journal, and everything
// else (the store's entry files).
type syncCounts struct {
	mu             sync.Mutex
	journal, store int
}

func (c *syncCounts) hook(jpath string) func(op, name string) {
	return func(op, name string) {
		if op != "sync" {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if name == jpath {
			c.journal++
		} else {
			c.store++
		}
	}
}

func (c *syncCounts) take() (journal, store int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	journal, store = c.journal, c.store
	c.journal, c.store = 0, 0
	return journal, store
}

// durableServer starts a server on a store and a journal under dir, both
// on fsys.
func durableServer(t *testing.T, dir string, fsys store.FS, opts Options) (*Server, *store.Journal) {
	t.Helper()
	st := openStore(t, store.Options{Dir: filepath.Join(dir, "store"), FS: fsys})
	jl, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"), fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	opts.Store, opts.Journal = st, jl
	s := NewServer(opts)
	t.Cleanup(s.Close)
	return s, jl
}

// settledAnswer is the POST /jobs?wait document as a client sees it.
type settledAnswer struct {
	Status client.Submission `json:"status"`
	Report json.RawMessage   `json:"report"`
}

// postWait submits with ?wait under ctx and decodes the answer. The
// report is cut out of the body by position as well, so the comparison
// with /report does not lean on a JSON decoder's idea of the bytes.
func postWait(ctx context.Context, base, body string) (int, settledAnswer, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs?wait", strings.NewReader(body))
	if err != nil {
		return 0, settledAnswer{}, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, settledAnswer{}, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, settledAnswer{}, nil, err
	}
	var ans settledAnswer
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ans); err != nil {
			return resp.StatusCode, ans, nil, err
		}
	}
	var tail []byte
	if i := bytes.Index(raw, []byte(`,"report":`)); i >= 0 {
		tail = raw[i+len(`,"report":`) : len(raw)-1]
	}
	return resp.StatusCode, ans, tail, nil
}

func mustPostWait(t *testing.T, ts *httptest.Server, body string) (settledAnswer, []byte) {
	t.Helper()
	code, ans, tail, err := postWait(waitCtx(t), ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("POST /jobs?wait: HTTP %d", code)
	}
	return ans, tail
}

// checkReportBytes requires the answer's report to be the bytes
// /jobs/{id}/report serves, and returns them.
func checkReportBytes(t *testing.T, ts *httptest.Server, ans settledAnswer, tail []byte) []byte {
	t.Helper()
	if ans.Status.State != StateDone {
		t.Fatalf("answer state %s (%s), want done", ans.Status.State, ans.Status.Error)
	}
	code, want, _ := getBody(t, ts.URL+"/jobs/"+ans.Status.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: HTTP %d", code)
	}
	if !bytes.Equal(ans.Report, want) || !bytes.Equal(tail, want) {
		t.Fatalf("job %s: the wait answer's report is not the bytes /report serves", ans.Status.ID)
	}
	return want
}

// TestWaitAnswersReportInline: one POST /jobs?wait is the whole round
// trip, and its report is byte-for-byte what /jobs/{id}/report serves —
// for a miss, a memory hit, a store hit on a restarted server and a
// submission coalesced onto a job already in flight.
func TestWaitAnswersReportInline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, ts := newTestService(t, Options{Workers: 1, Store: openStore(t, store.Options{Dir: dir})})

	ans, tail := mustPostWait(t, ts, fastBody)
	if ans.Status.CacheHitNow || ans.Status.DedupedNow || ans.Status.FinishedAt == nil {
		t.Fatalf("miss answered %+v", ans.Status)
	}
	first := checkReportBytes(t, ts, ans, tail)

	ans, tail = mustPostWait(t, ts, fastBody)
	if !ans.Status.CacheHitNow || !ans.Status.CacheHit || ans.Status.StoreHit {
		t.Fatalf("memory hit answered %+v", ans.Status)
	}
	if got := checkReportBytes(t, ts, ans, tail); !bytes.Equal(got, first) {
		t.Fatal("memory hit served different bytes")
	}
	if s.Executions() != 1 {
		t.Fatalf("executions = %d, want 1", s.Executions())
	}

	// A second server on the same store directory: a store hit.
	logger, coalesced := watchLog("submission coalesced onto in-flight job")
	s2, ts2 := newTestService(t, Options{Workers: 1, Store: openStore(t, store.Options{Dir: dir}), Logger: logger})
	ans, tail = mustPostWait(t, ts2, fastBody)
	if !ans.Status.CacheHitNow || !ans.Status.StoreHit {
		t.Fatalf("store hit answered %+v", ans.Status)
	}
	if got := checkReportBytes(t, ts2, ans, tail); !bytes.Equal(got, first) {
		t.Fatal("store hit served different bytes")
	}
	if s2.Executions() != 0 {
		t.Fatalf("executions = %d on a store hit", s2.Executions())
	}

	// Deduped: a blocker holds the only worker, a plain submission
	// queues behind it, and the waiting one coalesces onto that job.
	blocker, err := s2.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	const other = `{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":7}`
	if resp, sub := postJob(t, ts2, other); resp.StatusCode != http.StatusAccepted || sub.State != StateQueued {
		t.Fatalf("queued submission: HTTP %d %+v", resp.StatusCode, sub)
	}
	type result struct {
		ans  settledAnswer
		tail []byte
		err  error
	}
	answered := make(chan result, 1)
	ctx := waitCtx(t)
	go func() {
		_, ans, tail, err := postWait(ctx, ts2.URL, other)
		answered <- result{ans, tail, err}
	}()
	<-coalesced
	if err := s2.Cancel(blocker.Job.ID()); err != nil {
		t.Fatal(err)
	}
	r := <-answered
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.ans.Status.DedupedNow || r.ans.Status.CacheHitNow || r.ans.Status.Deduped != 1 {
		t.Fatalf("deduped submission answered %+v", r.ans.Status)
	}
	checkReportBytes(t, ts2, r.ans, r.tail)
}

// TestWaitAnswersFailedAndCancelled: a job that settles without a
// report still answers 200 — the submission was served — with the
// terminal status and no report member.
func TestWaitAnswersFailedAndCancelled(t *testing.T) {
	poison := fastSpec(61)
	testInjectPanic = func(spec JobSpec) {
		if spec.Seed == poison.Seed {
			panic("injected kernel bug")
		}
	}
	defer func() { testInjectPanic = nil }()
	logger, ran := watchLog("job running")
	s, ts := newTestService(t, Options{Workers: 2, Logger: logger})

	body, _ := json.Marshal(poison)
	ans, tail := mustPostWait(t, ts, string(body))
	<-ran // the poisoned job
	if ans.Status.State != StateFailed || !strings.Contains(ans.Status.Error, "engine panic") {
		t.Fatalf("failed job answered %+v", ans.Status)
	}
	if ans.Report != nil || tail != nil {
		t.Fatalf("failed job answered a report: %s", ans.Report)
	}

	slow, _ := json.Marshal(slowSpec())
	answered := make(chan settledAnswer, 1)
	ctx := waitCtx(t)
	go func() {
		_, ans, _, err := postWait(ctx, ts.URL, string(slow))
		if err != nil {
			t.Error(err)
		}
		answered <- ans
	}()
	<-ran
	running := s.Jobs()[1]
	if err := s.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	got := <-answered
	if got.Status.ID != running.ID() || got.Status.State != StateCancelled || got.Report != nil {
		t.Fatalf("cancelled job answered %+v report %s", got.Status, got.Report)
	}
}

// TestWaitRefusalsUnchanged: ?wait changes nothing about admission —
// the 400 and 429 answers are the ones a plain submit gets.
func TestWaitRefusalsUnchanged(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	code, _, _, err := postWait(waitCtx(t), ts.URL, `{"model":"nope"}`)
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("bad spec with wait: HTTP %d err %v", code, err)
	}
	blocker, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker.Job)
	if _, err := s.Submit(fastSpec(71)); err != nil { // fills the queue
		t.Fatal(err)
	}
	body, _ := json.Marshal(fastSpec(72))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs?wait", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full queue with wait: HTTP %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.Cancel(blocker.Job.ID())
}

// TestWaitParameterValues: the parameter is bare or a boolean. A false
// value is a plain submit, answered at once with the flat document; a
// value that is no boolean is refused before anything is admitted.
func TestWaitParameterValues(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	post := func(query string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs"+query, "application/json", strings.NewReader(fastBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}
	if code, _ := post("?wait=soon"); code != http.StatusBadRequest || len(s.Jobs()) != 0 {
		t.Fatalf("?wait=soon: HTTP %d with %d jobs admitted, want 400 and none", code, len(s.Jobs()))
	}
	for _, q := range []string{"?wait=0", "?wait=false"} {
		code, doc := post(q)
		if _, held := doc["status"]; held || doc["id"] == nil || (code != http.StatusAccepted && code != http.StatusOK) {
			t.Fatalf("%s: HTTP %d %v, want the plain submission document", q, code, doc)
		}
	}
	for _, q := range []string{"?wait", "?wait=", "?wait=1", "?wait=true"} {
		code, doc := post(q)
		if code != http.StatusOK || doc["status"] == nil || doc["report"] == nil {
			t.Fatalf("%s: HTTP %d %v, want the settled answer", q, code, doc)
		}
	}
}

// TestWaitAbandonedLeavesJobRunning: a waiter that goes away gives up
// its request, not the job — it runs to completion and the next
// submission of the spec is a cache hit.
func TestWaitAbandonedLeavesJobRunning(t *testing.T) {
	logger, admitted := watchLog("job admitted")
	s := NewServer(Options{Workers: 1, Logger: logger})
	api := s.Handler()
	released := make(chan struct{}, 4) // one token per wait request served; the test makes two
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.ServeHTTP(w, r)
		if r.URL.Query().Has("wait") {
			released <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	blocker, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-admitted // the blocker
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, _, _, err := postWait(ctx, ts.URL, fastBody)
		gone <- err
	}()
	<-admitted
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("abandoned wait returned an answer")
	}
	// The handler lets go of the request with the job still queued.
	select {
	case <-released:
	case <-time.After(30 * time.Second):
		t.Fatal("the handler kept waiting after its client went away")
	}
	abandoned := s.Jobs()[1]
	if st := abandoned.State(); st != StateQueued {
		t.Fatalf("abandoned job is %s, want still queued", st)
	}
	if err := s.Cancel(blocker.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := abandoned.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("abandoned job settled %s (%s)", st, abandoned.Err())
	}
	ans, tail := mustPostWait(t, ts, fastBody)
	if !ans.Status.CacheHitNow {
		t.Fatalf("resubmission after an abandoned wait: %+v", ans.Status)
	}
	checkReportBytes(t, ts, ans, tail)
	if s.Executions() != 2 { // the blocker and the abandoned job, once each
		t.Fatalf("executions = %d, want 2", s.Executions())
	}
}

// TestFsyncBudget pins the flushes a job costs: a cold done job is the
// journal begin and the store publish — its end rides unsynced — while a
// cancelled job, which only the journal records, has begin and end both
// flushed.
func TestFsyncBudget(t *testing.T) {
	dir := t.TempDir()
	var counts syncCounts
	fsys := &storetest.HookFS{Hook: counts.hook(filepath.Join(dir, "journal.ndjson"))}
	s, jl := durableServer(t, dir, fsys, Options{Workers: 1})
	counts.take() // opening compacts the journal

	res, err := s.Submit(fastSpec(81))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("cold job: %s (%s)", st, res.Job.Err())
	}
	if j, st := counts.take(); j != 1 || st != 1 {
		t.Fatalf("cold done job: %d journal + %d store fsyncs, want 1 + 1", j, st)
	}
	if got := jl.Stats().Appends; got != 2 {
		t.Fatalf("journal appends = %d, want begin and end", got)
	}

	res, err = s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateCancelled {
		t.Fatalf("cancelled job: %s", st)
	}
	// No sleep: the end is journaled before the state becomes visible.
	if j, st := counts.take(); j != 2 || st != 0 {
		t.Fatalf("cancelled job: %d journal + %d store fsyncs, want 2 + 0", j, st)
	}

	// A memory hit touches neither.
	if _, err := s.Submit(fastSpec(81)); err != nil {
		t.Fatal(err)
	}
	if j, st := counts.take(); j != 0 || st != 0 {
		t.Fatalf("cache hit: %d journal + %d store fsyncs, want none", j, st)
	}
}

// TestUnpublishedDoneEndIsFsynced: the unsynced end is earned by the
// store publish, not by the word "done". A done job whose result is in
// memory only — no store, or a store that declined the write — has
// nothing but the journal to say it finished, so its end is flushed
// like a failed job's.
func TestUnpublishedDoneEndIsFsynced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(dir string, fsys store.FS) *store.Store
	}{
		{"no store", func(string, store.FS) *store.Store { return nil }},
		{"store declines", func(dir string, fsys store.FS) *store.Store {
			// A budget smaller than any report: Publish stores nothing and
			// returns no error.
			return openStore(t, store.Options{Dir: filepath.Join(dir, "store"), FS: fsys, MaxBytes: 16})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jpath := filepath.Join(dir, "journal.ndjson")
			var counts syncCounts
			fsys := &storetest.HookFS{Hook: counts.hook(jpath)}
			jl, err := store.OpenJournal(jpath, fsys, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer jl.Close()
			s := NewServer(Options{Workers: 1, Store: tc.store(dir, fsys), Journal: jl})
			defer s.Close()
			counts.take()

			res, err := s.Submit(fastSpec(83))
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Job.Wait(waitCtx(t)); st != StateDone {
				t.Fatalf("job: %s (%s)", st, res.Job.Err())
			}
			if j, st := counts.take(); j != 2 || st != 0 {
				t.Fatalf("unpublished done job: %d journal + %d store fsyncs, want 2 + 0", j, st)
			}
		})
	}
}

// TestLostUnsyncedEndRecoversAsStoreHit is the kill point the unsynced
// end opens: the machine dies after the store publish with the end
// record still in the page cache. The next generation replays the
// begin, finds the result in the store — zero executions — and retires
// it; the generation after that has nothing to recover.
func TestLostUnsyncedEndRecoversAsStoreHit(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	var mu sync.Mutex
	var durable int64 // journal bytes covered by an fsync
	fsys := &storetest.HookFS{Hook: func(op, name string) {
		if op == "sync" && name == jpath {
			fi, err := os.Stat(jpath)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			durable = fi.Size()
			mu.Unlock()
		}
	}}
	a, jl := durableServer(t, dir, fsys, Options{Workers: 1})
	res, err := a.Submit(fastSpec(91))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("first life: %s (%s)", st, res.Job.Err())
	}
	want, _ := res.Job.Report()
	a.Close()
	jl.Close()

	// The crash: everything past the last fsync is gone.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Fatalf("journal holds %d records before the crash, want begin and end:\n%s", n, data)
	}
	if err := os.Truncate(jpath, durable); err != nil {
		t.Fatal(err)
	}
	if kept, _ := os.ReadFile(jpath); bytes.Count(kept, []byte("\n")) != 1 || !bytes.Contains(kept, []byte(`"begin"`)) {
		t.Fatalf("the crash should keep exactly the fsynced begin, kept:\n%s", kept)
	}

	b, jl2 := durableServer(t, dir, nil, Options{Workers: 1})
	if n := b.Recover(); n != 1 {
		t.Fatalf("second life recovered %d jobs, want 1", n)
	}
	jobs := b.Jobs()
	if len(jobs) != 1 || !jobs[0].status().StoreHit || jobs[0].State() != StateDone {
		t.Fatalf("recovered job is not a store hit: %+v", jobs[0].status())
	}
	if got, _ := jobs[0].Report(); !bytes.Equal(got, want) {
		t.Fatal("recovered report differs from the one computed before the crash")
	}
	if b.Executions() != 0 {
		t.Fatalf("executions = %d, want 0", b.Executions())
	}
	b.Close()
	jl2.Close()

	jl3 := openJournal(t, jpath)
	if p := jl3.Pending(); len(p) != 0 {
		t.Fatalf("third life still has %d pending", len(p))
	}
}

// logSeen is a log handler that reports each msg line the server writes
// on seen, a channel the test owns: the test's event for "a request made
// on another goroutine has got this far".
type logSeen struct {
	slog.Handler
	msg  string
	seen chan<- struct{}
}

func (h logSeen) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.seen <- struct{}{}
	}
	return nil
}

// watchLog returns a logger for Options.Logger and the channel that gets
// one token per msg line.
func watchLog(msg string) (*slog.Logger, <-chan struct{}) {
	// Room for more lines than any test's server logs: the server, which
	// writes some of them under its lock, never waits for the test.
	seen := make(chan struct{}, 16)
	return slog.New(logSeen{slog.NewTextHandler(io.Discard, nil), msg, seen}), seen
}

// holdAdmitted is a log handler that parks the "job admitted" line —
// Submit's last step before it journals the begin, with the server lock
// already released — until release is closed.
type holdAdmitted struct {
	slog.Handler
	release <-chan struct{}
}

func (h holdAdmitted) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "job admitted" {
		<-h.release
	}
	return nil
}

// TestBeginPrecedesEndInJournal: the begin record is written outside
// the server lock, so a job can finish before Submit has journaled it.
// Park Submit just short of its begin until the job has run and
// published — the worker is then at its end record — and the file must
// still read begin, end.
func TestBeginPrecedesEndInJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	release := make(chan struct{})
	// Opening compacts the journal through the hook too; watch for the
	// publish only once that is done.
	fsys := &storetest.HookFS{Hook: func(string, string) {}}
	logger := slog.New(holdAdmitted{Handler: slog.NewTextHandler(io.Discard, nil), release: release})
	s, jl := durableServer(t, dir, fsys, Options{Workers: 1, Logger: logger})
	var once sync.Once
	fsys.Hook = func(op, name string) {
		if op == "sync" && name != jpath { // the store publish
			once.Do(func() {
				// From here the worker needs microseconds to reach its end
				// record; give it far longer than that.
				time.AfterFunc(20*time.Millisecond, func() { close(release) })
			})
		}
	}

	res, err := s.Submit(fastSpec(95))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("job: %s (%s)", st, res.Job.Err())
	}
	s.Close()
	jl.Close()

	f, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ops []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Op string `json:"op"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, rec.Op)
	}
	if len(ops) != 2 || ops[0] != "begin" || ops[1] != "end" {
		t.Fatalf("journal reads %v, want [begin end]", ops)
	}
	if p := openJournal(t, jpath).Pending(); len(p) != 0 {
		t.Fatalf("a finished job replays: %d pending", len(p))
	}
}

// TestSubmitterPanicReleasesTheJob: the worker waits for its
// submitter's begin record before journaling the end. A submitter that
// panics between admission and that record (here: in the log handler)
// must not strand the job — it still settles and Close still returns.
func TestSubmitterPanicReleasesTheJob(t *testing.T) {
	dir := t.TempDir()
	logger := slog.New(panicAdmitted{slog.NewTextHandler(io.Discard, nil)})
	s, _ := durableServer(t, dir, store.OSFS{}, Options{Workers: 1, Logger: logger})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Submit did not panic")
			}
		}()
		s.Submit(fastSpec(97))
	}()
	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs admitted, want 1", len(jobs))
	}
	if st := jobs[0].Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("job: %s (%s)", st, jobs[0].Err())
	}
}

type panicAdmitted struct{ slog.Handler }

func (h panicAdmitted) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "job admitted" {
		panic("log handler fell over")
	}
	return nil
}

// TestNoFsyncUnderServerLock: every fsync a submission causes runs with
// s.mu free — Server.Job, which takes it, answers from inside the
// flush. Under a lock held across the begin fsync this would deadlock.
func TestNoFsyncUnderServerLock(t *testing.T) {
	dir := t.TempDir()
	var s *Server
	var mu sync.Mutex
	syncs := 0
	fsys := &storetest.HookFS{Hook: func(op, name string) {
		if op != "sync" || s == nil {
			return
		}
		mu.Lock()
		syncs++
		mu.Unlock()
		answered := make(chan struct{})
		go func() {
			s.Job("j000001")
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Errorf("Server.Job blocked during an fsync of %s: the flush runs under s.mu", filepath.Base(name))
		}
	}}
	srv, _ := durableServer(t, dir, fsys, Options{Workers: 1})
	s = srv

	res, err := s.Submit(fastSpec(97))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("done job: %s (%s)", st, res.Job.Err())
	}
	res, err = s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	s.Cancel(res.Job.ID())
	if st := res.Job.Wait(waitCtx(t)); st != StateCancelled {
		t.Fatalf("cancelled job: %s", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if syncs != 4 { // begin, publish; begin, end
		t.Fatalf("observed %d fsyncs, want 4", syncs)
	}
}

// TestCancelWhileQueuedIsJournaledBeforeItShows: a job cancelled before
// any worker reached it must be ended in the journal, flushed, by the
// time the caller is told it is cancelled. Here the pool's one worker is
// held, the job is admitted and cancelled, and the machine dies: the
// journal cut back to its last fsync has nothing pending, so the next
// generation does not replay a job its caller saw cancelled. The worker
// that picks the job up afterwards writes no second end.
func TestCancelWhileQueuedIsJournaledBeforeItShows(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.ndjson")
	var mu sync.Mutex
	var durable int64 // journal bytes covered by an fsync
	fsys := &storetest.HookFS{Hook: func(op, name string) {
		if op == "sync" && name == jpath {
			fi, err := os.Stat(jpath)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			durable = fi.Size()
			mu.Unlock()
		}
	}}
	s, jl := durableServer(t, dir, fsys, Options{Workers: 1})
	hold, picked := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // ahead of the server's Close, which waits for the worker
	if !s.pool.TrySubmit(func() { close(picked); <-hold }) {
		t.Fatal("could not occupy the worker")
	}
	<-picked
	res, err := s.Submit(fastSpec(93))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := res.Job.State(); st != StateCancelled {
		t.Fatalf("after Cancel returned the job is %s, want cancelled", st)
	}

	// The crash, with the worker still held: a copy of the journal as far
	// as it is flushed.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	kept := data[:durable]
	mu.Unlock()
	crashed := filepath.Join(dir, "crashed.ndjson")
	if err := os.WriteFile(crashed, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	if p := openJournal(t, crashed).Pending(); len(p) != 0 {
		t.Fatalf("a crash right after the cancel was acknowledged replays %d job(s); flushed journal:\n%s", len(p), kept)
	}

	release()
	s.Close() // the worker picks the cancelled job up and skips it
	jl.Close()
	data, err = os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 || bytes.Count(data, []byte(`"end"`)) != 1 {
		t.Fatalf("journal should read begin, end:\n%s", data)
	}
	if s.Executions() != 0 {
		t.Fatalf("executions = %d, want 0", s.Executions())
	}
}
