package simd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// openStore opens a persistent store for a test server.
func openStore(t *testing.T, opts store.Options) *store.Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "store")
	}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func openJournal(t *testing.T, path string) *store.Journal {
	t.Helper()
	jl, err := store.OpenJournal(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// TestWarmRestartStoreHit: a result computed by one server instance is
// served byte-for-byte by a second instance sharing the store directory,
// with zero re-execution — the restart durability contract.
func TestWarmRestartStoreHit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec := fastSpec(11)

	a := NewServer(Options{Workers: 2, Store: openStore(t, store.Options{Dir: dir})})
	res, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("first run: %s (%s)", st, res.Job.Err())
	}
	want, _ := res.Job.Report()
	a.Close()

	b := NewServer(Options{Workers: 2, Store: openStore(t, store.Options{Dir: dir})})
	defer b.Close()
	res2, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.StoreHit || !res2.CacheHit || !res2.Job.status().StoreHit {
		t.Fatalf("restarted server missed the store: %+v", res2)
	}
	got, ok := res2.Job.Report()
	if !ok || string(got) != string(want) {
		t.Fatal("store hit is not byte-identical to the original report")
	}
	if b.Executions() != 0 {
		t.Fatalf("executions = %d on a pure store hit", b.Executions())
	}
	st := b.Stats()
	if st.Store == nil || st.Store.Hits != 1 {
		t.Fatalf("store stats missing the hit: %+v", st.Store)
	}

	// The hit is memoized: a third submission of the same spec is served
	// from memory, not the disk again.
	res3, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.CacheHit || res3.StoreHit {
		t.Fatalf("second hit should come from memory: %+v", res3)
	}
}

// TestJournalRecovery: begins without ends — the crash shape — replay on
// Recover. A job whose result reached the store comes back as an instant
// store hit; a genuinely interrupted job re-executes. Both stop
// replaying on the next restart.
func TestJournalRecovery(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	jpath := filepath.Join(base, "journal.ndjson")

	// A previous life computes one result and journals two admissions the
	// "crash" never ends: one completed (result in the store), one not.
	done, interrupted := fastSpec(21), fastSpec(22)
	a := NewServer(Options{Workers: 2, Store: openStore(t, store.Options{Dir: dir})})
	res, err := a.Submit(done)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("seed run: %s", st)
	}
	a.Close()

	jl := openJournal(t, jpath)
	for _, sp := range []JobSpec{done, interrupted} {
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := canon.Hash()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(canon)
		if err := jl.Begin(hash, raw); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	// Warm restart: reopen journal + store, recover.
	jl2 := openJournal(t, jpath)
	b := NewServer(Options{Workers: 2,
		Store:   openStore(t, store.Options{Dir: dir}),
		Journal: jl2,
	})
	if n := b.Recover(); n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	for _, j := range b.Jobs() {
		if st := j.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("recovered job %s: %s (%s)", j.ID(), st, j.Err())
		}
	}
	// Only the interrupted job re-ran.
	if b.Executions() != 1 {
		t.Fatalf("executions = %d, want 1 (completed job must be a store hit)", b.Executions())
	}
	if b.Stats().Recovered != 2 {
		t.Fatalf("stats.recovered = %d", b.Stats().Recovered)
	}
	b.Close()
	jl2.Close()

	// Third life: everything settled, nothing pending.
	jl3 := openJournal(t, jpath)
	if p := jl3.Pending(); len(p) != 0 {
		t.Fatalf("journal still pending after recovery: %d entries", len(p))
	}
}

// TestRecoverRetiresARehashedBegin: a begin journaled under an address
// its spec no longer canonicalises to re-submits under the new address,
// and the old begin is retired, not replayed on every restart. The specs
// are three pinned rows of internal/run, journaled as they addressed
// before a field became inert: "negative max_uncommitted" before every
// pool mode became the same run, "faults balance watchdog" before
// watchdog_us stopped timing anything, and "nullmsg explicit lookahead"
// before the calendar queue stopped being selectable.
func TestRecoverRetiresARehashedBegin(t *testing.T) {
	begins := []struct{ hash, canon string }{
		{"0977b9001693af05a361fae1080f7dfafad4f5d30191c0f0feff51d7da30a1bb",
			`{"batch_size":16,"ca_threshold":0.8,"checkpoint_interval":4,"comm":"dedicated","end_time":20,"engine":"timewarp","gvt":"samadi","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":-1,"model":"phold","nodes":2,"pool":"debug","queue":"heap","scenario":"comp","seed":1,"workers_per_node":4}`},
		{"118667055d0220842d2f98c2a74b6bc7c8150d543f8f0ab6fedc7c2d041224fa",
			`{"balance":"greedy","batch_size":16,"ca_threshold":0.8,"checkpoint_interval":1,"comm":"dedicated","end_time":60,"engine":"timewarp","faults":"straggler","gvt":"ca-gvt","gvt_interval":4,"lps_per_worker":8,"max_uncommitted":64,"model":"phold","nodes":2,"pool":"on","queue":"heap","scenario":"comp","seed":1,"watchdog_us":1500,"workers_per_node":4}`},
		{"18d70400d0224fc26964ba1d871a3d607afb4844cb235337f35aaf5010b5d43f",
			`{"batch_size":16,"comm":"dedicated","end_time":20,"engine":"conservative","lookahead":0.05,"lps_per_worker":8,"model":"phold","nodes":2,"queue":"calendar","scenario":"comp","seed":1,"sync":"nullmsg","workers_per_node":4}`},
	}
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	jl := openJournal(t, jpath)
	oldHashes := map[string]bool{}
	for _, b := range begins {
		if err := jl.Begin(b.hash, json.RawMessage(b.canon)); err != nil {
			t.Fatal(err)
		}
		oldHashes[b.hash] = true
	}
	jl.Close()

	jl2 := openJournal(t, jpath)
	s := NewServer(Options{Workers: 1, Journal: jl2})
	if n := s.Recover(); n != len(begins) {
		t.Fatalf("recovered %d jobs, want %d", n, len(begins))
	}
	for _, j := range s.Jobs() {
		if st := j.Wait(waitCtx(t)); st != StateDone {
			t.Fatalf("recovered job %s: %s (%s)", j.ID(), st, j.Err())
		}
		if oldHashes[j.hash] {
			t.Fatalf("a journaled spec still addresses to %s", j.hash)
		}
	}
	s.Close()
	jl2.Close()

	if p := openJournal(t, jpath).Pending(); len(p) != 0 {
		t.Fatalf("journal still pending after recovery: %d entries, first %s", len(p), p[0].Hash)
	}
}

// TestRecoverEndsARefusedBegin: a journaled spec the service refuses for
// good — over a service cap, rejected by validation, or no longer a spec
// at all — is ended as failed at recovery, not replayed on every restart.
func TestRecoverEndsARefusedBegin(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.ndjson")
	jl := openJournal(t, jpath)
	for _, b := range []struct{ hash, spec string }{
		{"over-cap", `{"nodes":65}`},
		{"invalid", `{"gvt":"bogus"}`},
		{"not-a-spec", `5`},
	} {
		if err := jl.Begin(b.hash, json.RawMessage(b.spec)); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	jl2 := openJournal(t, jpath)
	s := NewServer(Options{Workers: 1, Journal: jl2})
	if n := s.Recover(); n != 0 {
		t.Fatalf("recovered %d jobs, want 0", n)
	}
	s.Close()
	jl2.Close()

	if p := openJournal(t, jpath).Pending(); len(p) != 0 {
		t.Fatalf("journal still pending after recovery: %d entries, first %s", len(p), p[0].Hash)
	}
}

// TestJobDeadlineExceeded: a job over its wall-clock budget fails (it is
// not a cancellation) and the failure says why.
func TestJobDeadlineExceeded(t *testing.T) {
	s := NewServer(Options{Workers: 1, JobDeadline: 30 * time.Millisecond})
	defer s.Close()
	res, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if !strings.Contains(res.Job.Err(), "deadline") {
		t.Fatalf("error %q does not mention the deadline", res.Job.Err())
	}
	if s.Stats().DeadlineExceeded != 1 {
		t.Fatalf("deadline counter = %d", s.Stats().DeadlineExceeded)
	}

	// A job that finishes inside the budget is untouched. Use a roomy
	// budget on a separate server: the point is that a deadline which is
	// not hit changes nothing, and a tight one would flake under the race
	// detector's slowdown.
	s2 := NewServer(Options{Workers: 1, JobDeadline: time.Minute})
	defer s2.Close()
	res2, err := s2.Submit(fastSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	if st := res2.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("fast job under a deadline: %s (%s)", st, res2.Job.Err())
	}
	if s2.Stats().DeadlineExceeded != 0 {
		t.Fatalf("unhit deadline counted: %d", s2.Stats().DeadlineExceeded)
	}
}

// TestPanicIsolation: an engine panic fails its own job — stack recorded
// for the flight recorder — and the worker pool keeps serving.
func TestPanicIsolation(t *testing.T) {
	poison := fastSpec(41)
	testInjectPanic = func(spec JobSpec) {
		if spec.Seed == poison.Seed {
			panic("injected kernel bug")
		}
	}
	defer func() { testInjectPanic = nil }()

	s := NewServer(Options{Workers: 1})
	defer s.Close()
	res, err := s.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Job.Wait(waitCtx(t)); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if !strings.Contains(res.Job.Err(), "engine panic") {
		t.Fatalf("error %q does not mention the panic", res.Job.Err())
	}
	fr := res.Job.Flight(1)
	if !strings.Contains(fr.PanicStack, "injected kernel bug") &&
		!strings.Contains(fr.PanicStack, "runEngine") {
		t.Fatalf("flight record has no usable panic stack:\n%s", fr.PanicStack)
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("panic counter = %d", s.Stats().Panics)
	}

	// The single worker survived the panic.
	res2, err := s.Submit(fastSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if st := res2.Job.Wait(waitCtx(t)); st != StateDone {
		t.Fatalf("job after a panic: %s (%s)", st, res2.Job.Err())
	}
}

// TestDegradedStillServes: when the store's disk breaks mid-flight the
// service keeps answering from memory and /healthz flips to "degraded";
// results flow again (sans durability) exactly as before. Each executed
// job makes two store calls (the miss, the publish), so the store trips
// at the third failure: the second job's read.
func TestDegradedStillServes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := openStore(t, store.Options{Dir: dir})
	s := NewServer(Options{Workers: 2, Store: st})
	defer s.Close()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if got := healthzStatus(t, srv.URL); got != "ok" {
		t.Fatalf("healthz before breakage: %q", got)
	}

	// Break the disk out from under the store: objects becomes a regular
	// file, so every shard mkdir and entry read fails with ENOTDIR —
	// infrastructure errors, not misses. (chmod tricks don't work when
	// the tests run as root; ENOTDIR fails for everyone.)
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	for seed := uint64(51); seed <= 53; seed++ {
		res, err := s.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if state := res.Job.Wait(waitCtx(t)); state != StateDone {
			t.Fatalf("job under store failure: %s (%s)", state, res.Job.Err())
		}
		if want := seed >= 52; s.Degraded() != want {
			t.Fatalf("after job %d: degraded = %v, want %v", seed, s.Degraded(), want)
		}
	}
	if got := healthzStatus(t, srv.URL); got != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", got)
	}

	// Degraded is bypass, not outage: identical resubmissions still hit
	// the in-memory cache.
	res, err := s.Submit(fastSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("memory cache stopped working in degraded mode")
	}
}

// healthzStatus fetches /healthz and returns its status field.
func healthzStatus(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Status
}
