package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildOnce compiles the daemon binary once per test process.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func simdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "simd-test-bin-")
		if err == nil {
			buildOnce.bin = filepath.Join(dir, "simd-under-test")
			out, cmdErr := exec.Command("go", "build", "-o", buildOnce.bin, ".").CombinedOutput()
			if cmdErr != nil {
				err = fmt.Errorf("go build: %v\n%s", cmdErr, out)
			}
		}
		buildOnce.err = err
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

// daemon is one spawned simd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logs *bytes.Buffer
	mu   *sync.Mutex
}

// startDaemon launches simd on an ephemeral port and blocks until its
// "simd listening" log line reveals the real address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(simdBinary(t), append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logs: &bytes.Buffer{}, mu: &sync.Mutex{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "simd listening" {
				select {
				case addrCh <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never logged its address; logs:\n%s", d.dump())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

func (d *daemon) dump() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

// kill9 delivers SIGKILL — the crash the store's rename protocol and the
// journal must survive — and reaps the process.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// submitResp is the slice of the wire response these tests assert on.
type submitResp struct {
	ID          string `json:"id"`
	Hash        string `json:"hash"`
	State       string `json:"state"`
	StoreHit    bool   `json:"store_hit"`
	CacheHitNow bool   `json:"cache_hit_now"`
}

func submit(t *testing.T, base, spec string) submitResp {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit %s: %d %s", spec, resp.StatusCode, body)
	}
	var sr submitResp
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitJob blocks on the job's event stream — to its first record when
// waiting for running, to its end otherwise — and then requires the job
// to be in state want.
func waitJob(t *testing.T, base, id, want string) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for r := bufio.NewReader(resp.Body); ; {
		if _, err := r.ReadString('\n'); err != nil || want == "running" {
			break
		}
	}
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	getJSON(t, base+"/jobs/"+id, &st)
	if st.State != want {
		t.Fatalf("job %s is %s (%s), want %s", id, st.State, st.Error, want)
	}
}

func report(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: %d %s", id, resp.StatusCode, data)
	}
	return data
}

// TestCrashRestartDurability is the acceptance scenario: a daemon is
// SIGKILLed mid-run; its successor on the same store directory serves
// completed results byte-identically with zero re-execution and
// re-enqueues the interrupted job from the journal.
func TestCrashRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	dir := t.TempDir()
	const fast = `{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":101}`
	const slow = `{"nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":50000,"seed":102}`

	d1 := startDaemon(t, "-store-dir", dir, "-workers", "2")
	done := submit(t, d1.base, fast)
	waitJob(t, d1.base, done.ID, "done")
	want := report(t, d1.base, done.ID)

	interrupted := submit(t, d1.base, slow)
	waitJob(t, d1.base, interrupted.ID, "running")
	d1.kill9(t)

	// Warm restart on the same directory.
	d2 := startDaemon(t, "-store-dir", dir, "-workers", "2")
	var stats struct {
		Recovered  int64 `json:"recovered"`
		Executions int64 `json:"executions"`
	}
	getJSON(t, d2.base+"/stats", &stats)
	if stats.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1 (the interrupted job)\nlogs:\n%s", stats.Recovered, d2.dump())
	}

	// The completed job's result survived the kill: a resubmission is a
	// store hit, byte-identical, with no engine run.
	re := submit(t, d2.base, fast)
	if !re.StoreHit || !re.CacheHitNow || re.State != "done" {
		t.Fatalf("resubmission after crash: %+v, want a store hit", re)
	}
	if got := report(t, d2.base, re.ID); !bytes.Equal(got, want) {
		t.Fatal("post-restart report is not byte-identical")
	}
	getJSON(t, d2.base+"/stats", &stats)
	if stats.Executions > 1 {
		t.Fatalf("executions = %d, want at most 1 (only the interrupted job re-runs)", stats.Executions)
	}

	// The interrupted job really is back in flight (journal replay), and
	// a healthy store reports ok.
	var hz struct {
		Status string `json:"status"`
	}
	getJSON(t, d2.base+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz = %q after a clean warm restart", hz.Status)
	}
	var jobs struct {
		Jobs []struct {
			Hash  string `json:"hash"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	getJSON(t, d2.base+"/jobs", &jobs)
	found := false
	for _, j := range jobs.Jobs {
		if j.Hash == interrupted.Hash {
			found = true
			if j.State == "failed" || j.State == "cancelled" {
				t.Fatalf("recovered job state %s", j.State)
			}
		}
	}
	if !found {
		t.Fatalf("interrupted job (hash %s) not re-enqueued; jobs: %+v", interrupted.Hash, jobs.Jobs)
	}
}

// TestRestartJournalDrains: once the recovered job settles (here by
// cancellation — its fsynced end record is what matters), a third
// daemon generation finds nothing pending — recovery converges instead
// of replaying forever.
func TestRestartJournalDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	dir := t.TempDir()
	const spec = `{"nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":50000,"seed":103}`

	d1 := startDaemon(t, "-store-dir", dir, "-workers", "1")
	j := submit(t, d1.base, spec)
	waitJob(t, d1.base, j.ID, "running")
	d1.kill9(t)

	d2 := startDaemon(t, "-store-dir", dir, "-workers", "1")
	var stats struct {
		Recovered int64 `json:"recovered"`
	}
	getJSON(t, d2.base+"/stats", &stats)
	if stats.Recovered != 1 {
		t.Fatalf("second generation recovered = %d, want 1", stats.Recovered)
	}
	var jobs struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	getJSON(t, d2.base+"/jobs", &jobs)
	if len(jobs.Jobs) != 1 {
		t.Fatalf("jobs after recovery: %+v", jobs.Jobs)
	}
	// Settle the recovered job: once a worker has it, cancel it and wait
	// for the terminal state. A job that reached a worker journals its
	// fsynced end record before that state becomes visible, so the kill
	// can follow at once.
	waitJob(t, d2.base, jobs.Jobs[0].ID, "running")
	req, _ := http.NewRequest(http.MethodDelete, d2.base+"/jobs/"+jobs.Jobs[0].ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitJob(t, d2.base, jobs.Jobs[0].ID, "cancelled")
	d2.kill9(t)

	d3 := startDaemon(t, "-store-dir", dir, "-workers", "1")
	getJSON(t, d3.base+"/stats", &stats)
	if stats.Recovered != 0 {
		t.Fatalf("third generation recovered = %d, want 0\nlogs:\n%s", stats.Recovered, d3.dump())
	}
}
