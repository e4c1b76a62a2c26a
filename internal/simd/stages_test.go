package simd

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/run"
	"repro/internal/store"
	"repro/pkg/client"
)

// coldSpec is the host benchmark's cold job: a distinct tiny spec per
// seed, about forty events.
func coldSpec(seed uint64) JobSpec {
	return JobSpec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: seed}
}

// mallocsOf is the least of three counts of the heap allocations a stage
// makes, as run's allocsOf counts an engine: each time prep readies the
// stage for the next seed, and only the call it returns is counted. No
// collection is forced before, for it would empty the sync.Pools a warm
// job draws on.
func mallocsOf(seed *uint64, prep func(seed uint64) func()) uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		*seed++
		fn := prep(*seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if m := after.Mallocs - before.Mallocs; i == 0 || m < least {
			least = m
		}
	}
	return least
}

// TestColdJobStagesPinned is the allocation budget of the service's write
// path: what one cold job (a distinct tiny spec, a miss in memory and on
// disk) allocates at each stage it crosses, on a server with a store and
// a journal whose fan-out directories exist, and no logger. A stage that
// runs inside another is subtracted from it (less), so each row counts
// its own code. The stages are declared here once. A bound may only go
// down.
func TestColdJobStagesPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// One processor: a sync.Pool is per processor, and a stage that moved
	// between two would miss its pooled buffers by chance.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	st := openStore(t, store.Options{Dir: filepath.Join(dir, "store")})
	for i := 0; i < 256; i++ { // every fan-out directory made, as on a warm store
		if err := st.Put(fmt.Sprintf("%02x%062x", i, 0), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	jl, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	s, ts := newTestService(t, Options{Workers: 1, Store: st, Journal: jl})
	cl := client.New(ts.URL)
	ctx := context.Background()
	address := func(seed uint64) addressed {
		var a addressed
		var err error
		if a.canon, a.raw, a.hash, err = coldSpec(seed).Address(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	// Warm every path once: pools, the client's connection, the engine's
	// idle coroutines.
	if _, _, err := cl.Run(ctx, coldSpec(1<<40)); err != nil {
		t.Fatal(err)
	}
	report, _ := s.cache.Get(address(1 << 40).hash)

	// Before the cuts that set these bounds (Info lines built only when
	// enabled, the metric registry in sorted slices, store paths made once,
	// journal lines encoded into a reused buffer, the blocking Wait on a
	// channel, the kernel's pending set sized with its threads) the rows
	// read 3, 59, 32, 4, 21, 6, 18 and 263. Before a run's arrays came from
	// the runs before it, a job's admission signal was a
	// channel and a cache entry had its list element apart, the engine,
	// report and whole-job rows read 56, 19 and 218. Before a build's
	// node, worker, LP, MPI, wire and kernel arrays came from the run
	// before it (stash.Keep) and a publish's rename was rename(2) alone
	// (no second stat), the engine, publish and whole-job rows read 45, 16
	// and 205.
	seed := uint64(1 << 32)
	counts := map[string]int64{}
	for _, c := range []struct {
		stage string
		bound int64
		less  []string // earlier stages the measured call runs inside it
		what  string
		prep  func(seed uint64) func()
	}{
		{"address", 3, nil, "the spec boxed for json.Marshal, its JSON, the hash string", func(seed uint64) func() {
			spec := coldSpec(seed)
			return func() { spec.Address() }
		}},
		{"engine", 14, nil, "run.New + Run (TestEngineAllocsPinned's cold-job row)", func(seed uint64) func() {
			spec := coldSpec(seed)
			return func() {
				eng, err := run.New(spec, run.Attach{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"report", 17, []string{"engine"}, "recorder and its series, progress history, BuildReport, MarshalStable", func(seed uint64) func() {
			a := address(seed)
			j := newJob(0, a.hash, a.canon)
			return func() {
				if _, err := s.runEngine(j); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"store get", 3, nil, "the object path, the open's path bytes and error", func(seed uint64) func() {
			hash := address(seed).hash
			return func() { st.Get(hash) }
		}},
		{"store publish", 13, nil, "temp file, frame, object path, stat, rename", func(seed uint64) func() {
			hash := address(seed).hash
			return func() { st.Publish(hash, report) }
		}},
		{"journal", 0, nil, "the begin and end lines", func(seed uint64) func() {
			a := address(seed)
			j := newJob(0, a.hash, a.canon)
			return func() {
				s.journalBegin(j, a.raw)
				s.journalEnd(j, StateDone, true)
			}
		}},
		{"admission and wait", 5, []string{"address", "engine", "report", "store get", "store publish", "journal"},
			"Submit + Wait beyond the stages above: job record, pool closure, cache entry, wake-up channel; no log line", func(seed uint64) func() {
				spec := coldSpec(seed)
				return func() {
					res, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					res.Job.Wait(ctx)
				}
			}},
		{"whole job", 173, nil, "client.Run: all of the above, the body memo, HTTP at both ends, the ?wait answer, the SDK's decode", func(seed uint64) func() {
			spec := coldSpec(seed)
			return func() {
				if _, _, err := cl.Run(ctx, spec); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		m := int64(mallocsOf(&seed, c.prep))
		for _, l := range c.less {
			m -= counts[l]
		}
		counts[c.stage] = m
		t.Logf("%-18s %3d allocations (bound %d): %s", c.stage, m, c.bound, c.what)
		if m > c.bound {
			t.Errorf("%s: %d allocations per cold job, bound %d", c.stage, m, c.bound)
		}
	}
}

// TestSettledJobAccountedWhenWaitReturns: a job's waiters wake only once
// the server has accounted it — counted finished, out of the
// singleflight table, among the settled jobs kept — so whoever acts on
// a Wait's return sees it counted. The worker's "job finished" line is
// held until the check is made, so a worker that accounted the job after
// that line could not have done so yet.
func TestSettledJobAccountedWhenWaitReturns(t *testing.T) {
	release := make(chan struct{})
	logger := slog.New(holdLine{slog.NewTextHandler(io.Discard, nil), "job finished", release})
	s := NewServer(Options{Workers: 2, Logger: logger})
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(release) }) // first: a failed check leaves a line held
	for i := 1; i <= 200; i++ {
		res, err := s.Submit(coldSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Job.Wait(context.Background()); st != StateDone {
			t.Fatalf("job %d settled %s", i, st)
		}
		s.mu.Lock()
		kept, inflight := s.kept, s.inflight[res.Job.hash]
		s.mu.Unlock()
		finished := s.obs.finished[StateDone].Value()
		if done := s.Stats().ByState[StateDone]; kept != i || inflight != nil || finished != int64(i) || done != i {
			t.Fatalf("job %d woke its waiter with %d settled jobs kept, in flight %v, %d counted finished, %d listed done",
				i, kept, inflight != nil, finished, done)
		}
		release <- struct{}{}
	}
}

// holdLine is a log handler that parks each msg line until release
// gives it a token.
type holdLine struct {
	slog.Handler
	msg     string
	release <-chan struct{}
}

func (h holdLine) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		<-h.release
	}
	return nil
}

// recordLog keeps every record its logger handles at Info and above.
type recordLog struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *recordLog) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (h *recordLog) WithAttrs([]slog.Attr) slog.Handler           { return h }
func (h *recordLog) WithGroup(string) slog.Handler                { return h }
func (h *recordLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r.Clone())
	return nil
}

// TestJobLinesLoggedWhenEnabled: the Info lines a cold job crosses, built
// only when Info is enabled, still log with every attribute when it is.
func TestJobLinesLoggedWhenEnabled(t *testing.T) {
	h := &recordLog{}
	s := NewServer(Options{Workers: 1, Logger: slog.New(h)})
	res, err := s.Submit(coldSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	res.Job.Wait(context.Background())
	s.Close() // the finished line follows the wake-up; Close waits for it
	want := map[string]string{
		"job admitted": "job hash model queue_len",
		"job running":  "job hash model queued_seconds",
		"job finished": "job state duration_seconds rounds report_bytes",
	}
	for _, r := range h.records {
		var keys []string
		r.Attrs(func(a slog.Attr) bool {
			keys = append(keys, a.Key)
			if a.Key == "job" && a.Value.String() != res.Job.ID() {
				t.Errorf("%q names job %s, want %s", r.Message, a.Value, res.Job.ID())
			}
			return true
		})
		if w, ok := want[r.Message]; ok {
			if got := strings.Join(keys, " "); got != w {
				t.Errorf("%q logged %s, want %s", r.Message, got, w)
			}
			delete(want, r.Message)
		}
	}
	for msg := range want {
		t.Errorf("no %q line", msg)
	}
}

// TestRetireAllocatesNothing: settling an executed job into a full flight
// window releases the oldest job's history and allocates nothing: no log
// line is built for it (a disabled Debug line once boxed the job's id on
// every release).
func TestRetireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := NewServer(Options{Workers: 1, FlightRetain: 1})
	t.Cleanup(s.Close)
	jobs := make([]*Job, 200)
	for i := range jobs {
		jobs[i] = newJob(int64(i), "", JobSpec{})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = make([]*Job, 0, len(jobs)+1) // the window's appends never grow it
	next := 0
	allocs := testing.AllocsPerRun(len(jobs)-1, func() {
		s.retireLocked(jobs[next])
		next++
	})
	if allocs != 0 || len(s.retired) != 1 {
		t.Errorf("retiring a job into a full window allocated %v times (%d retained)", allocs, len(s.retired))
	}
}
