package simdcluster

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/simd"
)

var updateWire = flag.Bool("update", false, "rewrite golden files")

// wireNormalisers blank what differs from run to run: instants, uptime,
// the build block, the members' ephemeral ports and the temp store dir.
var wireNormalisers = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+(Z|[+-]\d\d:\d\d)"`), `"<time>"`},
	{regexp.MustCompile(`("uptime_seconds": ?)[0-9.e+-]+`), `${1}<seconds>`},
	{regexp.MustCompile(`(?s)("build": ?)\{.*?\}`), `${1}<build>`},
	{regexp.MustCompile(`("addr": ?)"[^"]*"`), `${1}"<addr>"`},
	{regexp.MustCompile(`("dir": ?)"[^"]+"`), `${1}"<dir>"`},
}

// recordWire appends one exchange with the router to buf: status line,
// contract headers, and the body byte for byte.
func recordWire(t *testing.T, buf *bytes.Buffer, base, name, method, path, body string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, n := range wireNormalisers {
		data = n.re.ReplaceAll(data, []byte(n.with))
	}
	fmt.Fprintf(buf, "=== %s: %s %s\nHTTP %d\n", name, method, path, resp.StatusCode)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(buf, "%s: %s\n", h, v)
		}
	}
	fmt.Fprintf(buf, "\n%s\n", data)
}

// TestRouterWireDocumentsPinned pins the router's documents byte for
// byte, as TestWireDocumentsPinned does the daemon's. One member, its one
// worker held by a job submitted to the member directly (so the router
// never lists it), and the done job pre-warmed the same way: every state
// the router reports is then deterministic.
func TestRouterWireDocumentsPinned(t *testing.T) {
	c, nodes := newTestCluster(t, 1, 1, 1)
	rt := httptest.NewServer(c.Handler())
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	member := nodes[0].srv

	warm, err := member.Submit(simd.JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: 1})
	if err != nil || warm.Job.Wait(ctx) != simd.StateDone {
		t.Fatalf("warming the member: %v", err)
	}
	blocker, err := member.Submit(simd.JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 8, EndTime: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	if events, _, done := blocker.Job.WaitEvents(ctx, 0); done || len(events) == 0 {
		t.Fatal("blocker settled before it ran")
	}

	var buf bytes.Buffer
	do := func(name, method, path, body string) {
		t.Helper()
		recordWire(t, &buf, rt.URL, name, method, path, body)
	}
	do("submit 200 hit", "POST", "/jobs", string(specJSON(1, 5)))
	do("submit 202", "POST", "/jobs", string(specJSON(2, 5)))
	do("submit 200 dedup", "POST", "/jobs?wait", string(specJSON(2, 5)))
	do("queue full 429", "POST", "/jobs", string(specJSON(3, 5)))
	do("status done", "GET", "/jobs/c1", "")
	do("status queued", "GET", "/jobs/c2", "")
	do("report", "GET", "/jobs/c1/report", "")
	do("report 409", "GET", "/jobs/c2/report", "")
	do("cancel 200", "DELETE", "/jobs/c2", "")
	do("cancel 409", "DELETE", "/jobs/c2", "")
	do("list", "GET", "/jobs", "")
	do("bad spec 400", "POST", "/jobs", `{"model":"nope"}`)
	do("unknown id 404", "GET", "/jobs/c999", "")
	do("unknown id report 404", "GET", "/jobs/c999/report", "")
	do("unknown id cancel 404", "DELETE", "/jobs/c999", "")
	do("nodes", "GET", "/nodes", "")
	do("drain", "POST", "/nodes/n1/drain", "")
	do("no replica 503", "POST", "/jobs", string(specJSON(4, 5)))
	do("undrain", "DELETE", "/nodes/n1/drain", "")
	do("unknown node 404", "POST", "/nodes/ghost/drain", "")
	do("stats", "GET", "/stats", "")
	do("healthz", "GET", "/healthz", "")

	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("router wire documents moved (run with -update only for an intended change)\n--- got\n%s\n--- want\n%s", buf.Bytes(), want)
	}
}
