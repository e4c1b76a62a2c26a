// The tests against a real daemon live outside the package: internal/simd
// encodes the documents this package declares, so it imports it.
package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/simd"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/pkg/client"
)

// daemon is a real simd.Server on a temp store and journal behind an
// httptest listener, with its requests and fsyncs counted.
type daemon struct {
	client   *client.Client
	server   *simd.Server
	requests atomic.Int64
	syncs    atomic.Int64
	// intercept, when set, sees every request first; true means it has
	// dealt with the request itself.
	intercept func(w http.ResponseWriter, r *http.Request) bool
}

func startDaemon(tb testing.TB) *daemon {
	tb.Helper()
	d := &daemon{}
	fsys := &storetest.HookFS{Hook: func(op, _ string) {
		if op == "sync" {
			d.syncs.Add(1)
		}
	}}
	dir := tb.TempDir()
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store"), FS: fsys})
	if err != nil {
		tb.Fatal(err)
	}
	jl, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"), fsys, nil)
	if err != nil {
		tb.Fatal(err)
	}
	d.server = simd.NewServer(simd.Options{Workers: 2, Store: st, Journal: jl})
	api := d.server.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.requests.Add(1)
		if d.intercept != nil && d.intercept(w, r) {
			return
		}
		api.ServeHTTP(w, r)
	}))
	tb.Cleanup(func() {
		ts.Close()
		d.server.Close()
		jl.Close()
		st.Close()
	})
	d.client = client.New(ts.URL)
	return d
}

// tinySpec is the benchmark's cold job: about forty events, so the
// service's own layers are the work.
func tinySpec(seed uint64) simd.JobSpec {
	return simd.JobSpec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: seed}
}

// TestRunAgainstDaemonIsOneExchange: against a real daemon Run costs
// one request, miss or hit, and hands back the bytes /report serves.
func TestRunAgainstDaemonIsOneExchange(t *testing.T) {
	d := startDaemon(t)
	ctx := context.Background()
	for _, want := range []struct{ hit bool }{{false}, {true}} {
		before := d.requests.Load()
		st, report, err := d.client.Run(ctx, tinySpec(1))
		if err != nil {
			t.Fatal(err)
		}
		if n := d.requests.Load() - before; n != 1 {
			t.Fatalf("Run (hit=%v) made %d requests, want 1", want.hit, n)
		}
		if st.State != client.StateDone || st.CacheHit != want.hit {
			t.Fatalf("Run (hit=%v) settled %+v", want.hit, st)
		}
		served, err := d.client.Report(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(report, served) {
			t.Fatalf("Run (hit=%v) returned bytes other than /report's", want.hit)
		}
	}
	if n := d.server.Executions(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}

// TestRunSurvivesCutWait: the held request is cut with the job already
// admitted — what a daemon restart or a proxy's idle timeout does. Run
// must not come back empty-handed: it submits again (landing on the
// same job or its cached result), follows that id the ordinary way and
// returns the report, and the job has run once.
func TestRunSurvivesCutWait(t *testing.T) {
	d := startDaemon(t)
	var routes []string // appended from the server's goroutines, one request at a time
	cut := false
	d.intercept = func(w http.ResponseWriter, r *http.Request) bool {
		routes = append(routes, r.Method+" "+r.URL.RequestURI())
		if cut || !r.URL.Query().Has("wait") {
			return false
		}
		cut = true
		var spec simd.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Error(err)
		}
		if _, err := d.server.Submit(spec); err != nil {
			t.Error(err)
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return true
		}
		conn.Close()
		return true
	}
	ctx := context.Background()
	st, report, err := d.client.Run(ctx, tinySpec(7))
	if err != nil {
		t.Fatalf("Run over a cut wait: %v (requests %v)", err, routes)
	}
	if st.State != client.StateDone || st.ID == "" {
		t.Fatalf("Run over a cut wait settled %+v", st)
	}
	if len(routes) < 2 || routes[0] != "POST /jobs?wait" || routes[1] != "POST /jobs" {
		t.Fatalf("requests %v, want the wait post, then a plain resubmission", routes)
	}
	served, err := d.client.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, served) {
		t.Fatal("Run over a cut wait returned bytes other than /report's")
	}
	if n := d.server.Executions(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}

	// A refusal is an answer, not a broken exchange: no second attempt.
	before := d.requests.Load()
	var api *client.APIError
	if _, _, err := d.client.Run(ctx, simd.JobSpec{Model: "nope"}); !errors.As(err, &api) {
		t.Fatalf("bad spec: %v, want *APIError", err)
	}
	if n := d.requests.Load() - before; n != 1 {
		t.Fatalf("a refused Run made %d requests, want 1", n)
	}
}

var benchReport []byte

// benchmarkRun times client.Run and reports what one call costs in
// HTTP requests and fsyncs. spec picks the job for iteration i.
func benchmarkRun(b *testing.B, spec func(i int) simd.JobSpec) {
	d := startDaemon(b)
	ctx := context.Background()
	// Untimed: fill the cache for the hit case, and create the store's
	// fan-out directories for both.
	for i := 0; i < 64; i++ {
		if _, _, err := d.client.Run(ctx, tinySpec(uint64(1_000_000+i))); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := d.client.Run(ctx, spec(0)); err != nil {
		b.Fatal(err)
	}
	requests, syncs := d.requests.Load(), d.syncs.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		_, report, err := d.client.Run(ctx, spec(i))
		if err != nil {
			b.Fatal(err)
		}
		benchReport = report
	}
	b.StopTimer()
	b.ReportMetric(float64(d.requests.Load()-requests)/float64(b.N), "requests/op")
	b.ReportMetric(float64(d.syncs.Load()-syncs)/float64(b.N), "fsyncs/op")
}

// BenchmarkRunHit: every call is a memory-cache hit.
func BenchmarkRunHit(b *testing.B) {
	benchmarkRun(b, func(int) simd.JobSpec { return tinySpec(1) })
}

// BenchmarkRunMiss: every call is a distinct tiny spec — a cold job.
func BenchmarkRunMiss(b *testing.B) {
	benchmarkRun(b, func(i int) simd.JobSpec { return tinySpec(uint64(1 + i)) })
}

// BenchmarkDecodeSettled: what decoding one POST /jobs?wait answer costs
// the SDK, on a real daemon's answer for a default-topology job (≈6.5 KB,
// nearly all of it report): one-scan is the SDK's path, unmarshal the
// json.Unmarshal it replaces.
func BenchmarkDecodeSettled(b *testing.B) {
	d := startDaemon(b)
	resp, err := http.Post(d.client.Base()+"/jobs?wait", "application/json", strings.NewReader(`{"seed":42}`))
	if err != nil {
		b.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !client.OneScan(answer) {
		b.Fatalf("HTTP %d, %v: the answer does not take the one-scan path\n%s", resp.StatusCode, err, answer)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) error
	}{{"one-scan", client.DecodeSettled}, {"unmarshal", client.UnmarshalSettled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(answer)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(answer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
