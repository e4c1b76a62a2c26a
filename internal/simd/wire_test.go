package simd

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update", false, "rewrite golden files")

// wireNormalisers blank what legitimately differs from run to run:
// instants, the uptime and the build block. Ids, hashes, round counts,
// GVT and efficiency are deterministic and stay.
var wireNormalisers = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+(Z|[+-]\d\d:\d\d)"`), `"<time>"`},
	{regexp.MustCompile(`("uptime_seconds": ?)[0-9.e+-]+`), `${1}<seconds>`},
	{regexp.MustCompile(`(?s)("build": ?)\{.*?\}`), `${1}<build>`},
}

// wireRecorder collects HTTP exchanges as text: status line, the headers
// that are part of the contract, and the body byte for byte.
type wireRecorder struct {
	t    *testing.T
	base string
	buf  bytes.Buffer
}

func (w *wireRecorder) do(name, method, path, body string) {
	w.t.Helper()
	req, err := http.NewRequest(method, w.base+path, strings.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		w.t.Fatalf("%s: %v", name, err)
	}
	for _, n := range wireNormalisers {
		data = n.re.ReplaceAll(data, []byte(n.with))
	}
	fmt.Fprintf(&w.buf, "=== %s: %s %s\nHTTP %d\n", name, method, path, resp.StatusCode)
	for _, h := range []string{"Content-Type", "Cache-Control", "Retry-After", "X-Simd-Job", "X-Simd-Hash"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(&w.buf, "%s: %s\n", h, v)
		}
	}
	fmt.Fprintf(&w.buf, "\n%s\n", data)
}

// check compares what was recorded with the golden file (or rewrites it
// under -update).
func (w *wireRecorder) check(golden string) {
	w.t.Helper()
	path := filepath.Join("testdata", golden)
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			w.t.Fatal(err)
		}
		if err := os.WriteFile(path, w.buf.Bytes(), 0o644); err != nil {
			w.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		w.t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		w.t.Fatalf("wire documents moved (run with -update only for an intended change)\n--- got\n%s\n--- want\n%s", w.buf.Bytes(), want)
	}
}

// TestWireDocumentsPinned pins every document of the job API byte for
// byte — status codes, contract headers, field order, indentation — so a
// refactor of the declarations behind them shows that nothing moved
// rather than asserting it. The one worker is held by a plain pool task,
// not a job, so every job in the listing is deterministic.
func TestWireDocumentsPinned(t *testing.T) {
	const poisonSeed = 99
	testInjectPanic = func(spec JobSpec) {
		if spec.Seed == poisonSeed {
			panic("injected kernel bug")
		}
	}
	defer func() { testInjectPanic = nil }()
	logger, skipped := watchLog("job cancelled while queued")
	s, ts := newTestService(t, Options{Workers: 1, QueueDepth: 1, NodeID: "pin", Logger: logger})
	w := &wireRecorder{t: t, base: ts.URL}

	held, release := make(chan struct{}), make(chan struct{})
	if !s.pool.TrySubmit(func() { close(held); <-release }) {
		t.Fatal("could not occupy the worker")
	}
	<-held

	w.do("submit 202", "POST", "/jobs", fastBody)
	w.do("submit 200 dedup", "POST", "/jobs", fastBody)
	w.do("status queued", "GET", "/jobs/j000001", "")
	w.do("queue full 429", "POST", "/jobs", `{"end_time":5,"seed":3}`)
	w.do("report 409 not ready", "GET", "/jobs/j000001/report", "")
	w.do("cancel 200", "DELETE", "/jobs/j000001", "")
	w.do("cancel 409", "DELETE", "/jobs/j000001", "")
	w.do("report 409 no report", "GET", "/jobs/j000001/report", "")
	w.do("events cancelled", "GET", "/jobs/j000001/events", "")
	close(release)
	<-skipped // the worker has taken the cancelled job off the queue

	w.do("wait done", "POST", "/jobs?wait", fastBody)
	w.do("submit 200 hit", "POST", "/jobs", fastBody)
	w.do("wait hit", "POST", "/jobs?wait", fastBody)
	w.do("wait failed", "POST", "/jobs?wait", fmt.Sprintf(`{"end_time":5,"seed":%d}`, poisonSeed))
	w.do("status done", "GET", "/jobs/j000002", "")
	w.do("events done", "GET", "/jobs/j000002/events", "")
	w.do("report", "GET", "/jobs/j000002/report", "")
	w.do("flight", "GET", "/jobs/j000002/flight", "")
	w.do("list", "GET", "/jobs", "")
	w.do("bad spec 400", "POST", "/jobs", `{"model":"nope"}`)
	w.do("unknown field 400", "POST", "/jobs", `{"modle":"phold"}`)
	w.do("bad wait 400", "POST", "/jobs?wait=soon", fastBody)
	w.do("unknown id 404", "GET", "/jobs/j999999", "")
	w.do("unknown id cancel 404", "DELETE", "/jobs/j999999", "")
	w.do("stats", "GET", "/stats", "")
	w.do("healthz", "GET", "/healthz", "")
	w.check("wire.golden")
}
