package simd

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// fastSpec is a job small enough to finish in milliseconds.
func fastSpec(seed uint64) JobSpec {
	return JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: seed}
}

// slowSpec is a job long enough to still be running when the test acts
// on it; every test that submits one cancels it.
func slowSpec() JobSpec {
	return JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8, EndTime: 5e4}
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitRunning blocks until the job has emitted at least one progress
// round, which implies the engine is live mid-run.
func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	events, state, done := j.WaitEvents(waitCtx(t), 0)
	if done || len(events) == 0 {
		t.Fatalf("job %s settled (%s) before producing progress", j.ID(), state)
	}
}

// goroutines counts the goroutines but the engine threads' coroutines
// that sit idle between runs (sim.IdleCoroutines), which a run leaves
// behind by design for the next one.
func goroutines() int { return runtime.NumGoroutine() - sim.IdleCoroutines() }

// checkNoGoroutineLeak runs after Server.Close, which has waited for
// every worker and engine to finish: what can still be counted is a
// goroutine between its last statement and the scheduler reaping it. The
// runtime has no event for that, so yield to such goroutines until they
// are gone; the deadline bounds only a failing run.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if goroutines() <= baseline+2 {
			return
		}
		runtime.Gosched()
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutine leak: %d > baseline %d\n%s",
		goroutines(), baseline, buf[:runtime.Stack(buf, true)])
}

func TestSubmitRunReport(t *testing.T) {
	baseline := goroutines()
	s := NewServer(Options{Workers: 2})
	res, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || res.Deduped {
		t.Fatalf("fresh submission flagged %+v", res)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("state %s, err %q", st, res.Job.Err())
	}
	data, ok := res.Job.Report()
	if !ok || len(data) == 0 {
		t.Fatal("no report on a done job")
	}
	if res.Job.Rounds() == 0 {
		t.Fatal("no progress events recorded")
	}
	if got := s.Executions(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	s.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestCacheHit: the second submission of an identical spec is served
// byte-for-byte from the cache without executing.
func TestCacheHit(t *testing.T) {
	s := NewServer(Options{Workers: 2})
	defer s.Close()

	first, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("first run: %s (%s)", st, first.Job.Err())
	}
	second, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || !second.Job.status().CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	if second.Job.ID() == first.Job.ID() {
		t.Fatal("cache hit reused the first job's identity")
	}
	if second.Job.State() != StateDone {
		t.Fatal("cache-hit job not born done")
	}
	r1, _ := first.Job.Report()
	r2, _ := second.Job.Report()
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached report differs from the executed one")
	}
	if got := s.Executions(); got != 1 {
		t.Fatalf("executions = %d, want 1 (cache hit must not execute)", got)
	}
	if st := s.Stats(); st.Cache.Hits != 1 {
		t.Fatalf("cache stats %+v", st.Cache)
	}
}

// TestDeterministicReportsWithoutCache: with the cache disabled, the
// same spec re-executes and still yields byte-identical reports — the
// property that makes content-addressed caching sound.
func TestDeterministicReportsWithoutCache(t *testing.T) {
	s := NewServer(Options{Workers: 2, CacheBytes: -1})
	defer s.Close()
	var reports [][]byte
	for i := 0; i < 2; i++ {
		res, err := s.Submit(fastSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Job.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("run %d: %s (%s)", i, st, res.Job.Err())
		}
		if res.CacheHit {
			t.Fatal("cache hit with the cache disabled")
		}
		data, _ := res.Job.Report()
		reports = append(reports, data)
	}
	if got := s.Executions(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("identical specs produced different report bytes")
	}
}

// TestConcurrentSubmitSameSpec: N racing submissions of one spec must
// execute the engine exactly once; every submitter still gets the
// result.
func TestConcurrentSubmitSameSpec(t *testing.T) {
	s := NewServer(Options{Workers: 4})
	defer s.Close()
	const n = 16
	results := make([]SubmitResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(fastSpec(4))
		}(i)
	}
	wg.Wait()
	var want []byte
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if st := results[i].Job.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("submit %d: state %s (%s)", i, st, results[i].Job.Err())
		}
		data, ok := results[i].Job.Report()
		if !ok {
			t.Fatalf("submit %d: no report", i)
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(want, data) {
			t.Fatalf("submit %d: report bytes diverge", i)
		}
	}
	if got := s.Executions(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d identical submissions", got, n)
	}
}

// TestConcurrentSubmitDistinctSpecs: distinct specs never coalesce.
func TestConcurrentSubmitDistinctSpecs(t *testing.T) {
	s := NewServer(Options{Workers: 4})
	defer s.Close()
	const n = 6
	results := make([]SubmitResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Submit(fastSpec(uint64(100 + i)))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	hashes := make(map[string]bool)
	for i, res := range results {
		if res.Job == nil {
			t.Fatalf("submit %d lost", i)
		}
		if res.CacheHit || res.Deduped {
			t.Fatalf("distinct spec %d coalesced: %+v", i, res)
		}
		if st := res.Job.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st, res.Job.Err())
		}
		hashes[res.Job.Hash()] = true
	}
	if len(hashes) != n {
		t.Fatalf("%d distinct hashes for %d distinct specs", len(hashes), n)
	}
	if got := s.Executions(); got != n {
		t.Fatalf("executions = %d, want %d", got, n)
	}
}

// TestCancelMidRun: cancelling a running job settles it as cancelled,
// leaves no report, and caches nothing.
func TestCancelMidRun(t *testing.T) {
	baseline := goroutines()
	s := NewServer(Options{Workers: 1})
	res, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateCancelled {
		t.Fatalf("state %s, want cancelled", st)
	}
	if _, ok := res.Job.Report(); ok {
		t.Fatal("cancelled job has a report")
	}
	if st := s.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("cancelled run was cached: %+v", st.Cache)
	}
	// A second cancel of a settled job is an error.
	if err := s.Cancel(res.Job.ID()); !errors.Is(err, ErrFinished) {
		t.Fatalf("re-cancel: %v, want ErrFinished", err)
	}
	s.Close()
	checkNoGoroutineLeak(t, baseline)
}

// TestCancelQueued: a job cancelled while waiting never runs.
func TestCancelQueued(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 4})
	defer s.Close()
	blocker, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker.Job) // the only worker is now occupied
	queued, err := s.Submit(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := queued.Job.State(); st != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled immediately", st)
	}
	if err := s.Cancel(blocker.Job.ID()); err != nil {
		t.Fatal(err)
	}
	blocker.Job.Wait(waitCtx(t))
	queued.Job.Wait(waitCtx(t))
	if got := s.Executions(); got != 1 {
		t.Fatalf("executions = %d; the cancelled-queued job must not run", got)
	}
}

// TestQueueFullRejection: with one worker occupied and the single queue
// slot filled, the next submission is rejected — and leaves no job
// record behind.
func TestQueueFullRejection(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	blocker, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker.Job) // dequeued: the queue slot is free
	if _, err := s.Submit(fastSpec(6)); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	_, err = s.Submit(fastSpec(7))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	st := s.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if st.Jobs != 2 {
		t.Fatalf("jobs = %d; the rejected submission must leave no record", st.Jobs)
	}
	if err := s.Cancel(blocker.Job.ID()); err != nil {
		t.Fatal(err)
	}
	blocker.Job.Wait(waitCtx(t))
}

// TestCloseDrains: Close lets every admitted job settle, then refuses
// new work.
func TestCloseDrains(t *testing.T) {
	baseline := goroutines()
	s := NewServer(Options{Workers: 2, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		res, err := s.Submit(fastSpec(uint64(200 + i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, res.Job)
	}
	s.Close() // blocks until the queue drains
	for i, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job %d: %s after drain (%s)", i, st, j.Err())
		}
	}
	if _, err := s.Submit(fastSpec(999)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
	checkNoGoroutineLeak(t, baseline)
}

// TestWaitEventsStream: a streamer that joins late still sees the full
// history, then the terminal state.
func TestWaitEventsStream(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	res, err := s.Submit(fastSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	res.Job.Wait(waitCtx(t))

	ctx := waitCtx(t)
	cursor, rounds := 0, 0
	for {
		events, state, done := res.Job.WaitEvents(ctx, cursor)
		for _, u := range events {
			if int(u.Round) <= rounds {
				t.Fatalf("rounds not increasing: %d after %d", u.Round, rounds)
			}
			rounds = int(u.Round)
		}
		cursor += len(events)
		if done {
			if state != StateDone {
				t.Fatalf("terminal state %s", state)
			}
			break
		}
	}
	if cursor == 0 {
		t.Fatal("stream replayed no history")
	}
	if cursor != res.Job.Rounds() {
		t.Fatalf("streamed %d of %d rounds", cursor, res.Job.Rounds())
	}
}

// TestWaitEventsContextCancel: a streamer's context unblocks WaitEvents.
func TestWaitEventsContextCancel(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	res, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Go away once the run has moved a few rounds on.
		res.Job.WaitEvents(context.Background(), 3)
		cancel()
	}()
	// Drain until the context fires; must return rather than hang.
	cursor := 0
	for ctx.Err() == nil {
		events, _, done := res.Job.WaitEvents(ctx, cursor)
		cursor += len(events)
		if done {
			t.Fatal("slow job settled unexpectedly")
		}
	}
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	res.Job.Wait(waitCtx(t))
	s.Close()
}

func TestJobLookup(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	res, err := s.Submit(fastSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Job(res.Job.ID())
	if err != nil || got != res.Job {
		t.Fatalf("Job(%s) = %v, %v", res.Job.ID(), got, err)
	}
	if _, err := s.Job("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v, want ErrNotFound", err)
	}
	if err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel missing job: %v, want ErrNotFound", err)
	}
	if all := s.Jobs(); len(all) != 1 || all[0] != res.Job {
		t.Fatalf("Jobs() = %v", all)
	}
	res.Job.Wait(waitCtx(t))
}

// TestConservativeJob runs a conservative-engine job end to end: it
// must emit progress, produce a report naming the engine and protocol,
// and re-execute deterministically to byte-identical bytes.
func TestConservativeJob(t *testing.T) {
	s := NewServer(Options{Workers: 2, CacheBytes: -1})
	defer s.Close()
	spec := JobSpec{Engine: "conservative", Sync: "window",
		Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5}
	var reports [][]byte
	for i := 0; i < 2; i++ {
		res, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Job.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("run %d: %s (%s)", i, st, res.Job.Err())
		}
		if res.Job.Rounds() == 0 {
			t.Fatalf("run %d: no progress events", i)
		}
		data, _ := res.Job.Report()
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("conservative reports are not deterministic")
	}
	for _, want := range []string{`"engine":"conservative"`, `"sync":"window"`, `"lookahead":0.1`} {
		if !bytes.Contains(reports[0], []byte(want)) {
			t.Fatalf("report missing %s:\n%s", want, reports[0])
		}
	}
}

// TestConservativeCancel cancels a running conservative job through the
// server path, exercising the engine-agnostic cancellation plumbing.
func TestConservativeCancel(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Close()
	spec := JobSpec{Engine: "conservative",
		Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8, EndTime: 5e4}
	res, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, res.Job)
	if err := s.Cancel(res.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateCancelled {
		t.Fatalf("state %s, want cancelled", st)
	}
}
