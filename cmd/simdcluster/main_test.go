package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/internal/simdcluster"
	"repro/pkg/client"
)

// buildOnce compiles the router and member binaries once per test
// process, into one directory so the sibling autodetection works too.
var buildOnce struct {
	sync.Once
	dir string
	err error
}

func binaries(t *testing.T) (cluster, simdBin string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "simdcluster-test-bin-")
		if err == nil {
			for _, b := range [][2]string{{"simdcluster", "repro/cmd/simdcluster"}, {"simd", "repro/cmd/simd"}} {
				out, cmdErr := exec.Command("go", "build", "-o", filepath.Join(dir, b[0]), b[1]).CombinedOutput()
				if cmdErr != nil {
					err = fmt.Errorf("go build %s: %v\n%s", b[1], cmdErr, out)
					break
				}
			}
		}
		buildOnce.dir, buildOnce.err = dir, err
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return filepath.Join(buildOnce.dir, "simdcluster"), filepath.Join(buildOnce.dir, "simd")
}

// router is one spawned simdcluster process under test. Its stderr —
// its own log and, forwarded, every member's — is kept line by line.
type router struct {
	cmd  *exec.Cmd
	base string
	mu   sync.Mutex
	logs []string
	more chan struct{} // closed, and replaced, when a line arrives
}

func (r *router) dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strings.Join(r.logs, "\n")
}

// waitLog blocks until a log record — any written so far, or one yet to
// come — satisfies match, and returns it.
func (r *router) waitLog(t *testing.T, what string, match func(rec map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for seen := 0; ; {
		r.mu.Lock()
		lines, more := r.logs[seen:], r.more
		seen = len(r.logs)
		r.mu.Unlock()
		for _, line := range lines {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && match(rec) {
				return rec
			}
		}
		select {
		case <-more:
		case <-deadline.C:
			t.Fatalf("never logged: %s\nlogs:\n%s", what, r.dump())
		}
	}
}

// startRouter launches simdcluster on an ephemeral port and blocks
// until its "simdcluster listening" line reveals the address.
func startRouter(t *testing.T, args ...string) *router {
	t.Helper()
	bin, simdBin := binaries(t)
	base := []string{"-addr", "127.0.0.1:0", "-simd-bin", simdBin, "-log-format", "json"}
	cmd := exec.Command(bin, append(base, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := &router{cmd: cmd, more: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := newLineScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			r.mu.Lock()
			r.logs = append(r.logs, line)
			close(r.more)
			r.more = make(chan struct{})
			r.mu.Unlock()
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "simdcluster listening" {
				select {
				case addrCh <- rec.Addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		r.base = "http://" + addr
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("router never logged its address; logs:\n%s", r.dump())
	}
	t.Cleanup(func() {
		if cmd.ProcessState != nil {
			return
		}
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	return r
}

// submitView is the router's submit/status wire slice these tests use.
type submitView struct {
	ID           string `json:"id"`
	Hash         string `json:"hash"`
	State        string `json:"state"`
	Error        string `json:"error"`
	Node         string `json:"node_id"`
	CacheHitNow  bool   `json:"cache_hit_now"`
	Redispatches int    `json:"redispatches"`
}

func submit(t *testing.T, c *client.Client, spec string) submitView {
	t.Helper()
	var v submitView
	if err := c.Call(context.Background(), http.MethodPost, "/jobs", []byte(spec), &v); err != nil {
		t.Fatalf("submit %s: %v", spec, err)
	}
	return v
}

// waitDone blocks until the job the router knows as id — the spec with
// this hash, placed on node — has settled, and requires it done. The
// wait is the member's own: its event stream for the job ends when the
// job does.
func waitDone(t *testing.T, c *client.Client, id, node, hash string) submitView {
	t.Helper()
	ctx := context.Background()
	var nv nodesView
	if err := c.Call(ctx, http.MethodGet, "/nodes", nil, &nv); err != nil {
		t.Fatal(err)
	}
	for _, n := range nv.Nodes {
		if n.ID != node {
			continue
		}
		member := client.New(n.Addr)
		var list struct {
			Jobs []submitView `json:"jobs"`
		}
		if err := member.Call(ctx, http.MethodGet, "/jobs", nil, &list); err != nil {
			t.Fatalf("listing %s: %v", node, err)
		}
		for _, j := range list.Jobs {
			if j.Hash == hash {
				if err := member.Call(ctx, http.MethodGet, "/jobs/"+j.ID+"/events", nil, nil); err != nil {
					t.Fatalf("following job %s on %s: %v", j.ID, node, err)
				}
			}
		}
	}
	var v submitView
	if err := c.Call(ctx, http.MethodGet, "/jobs/"+id, nil, &v); err != nil || v.State != "done" {
		t.Fatalf("job %s is %s (%s) err %v, want done", id, v.State, v.Error, err)
	}
	return v
}

func fetchReport(t *testing.T, c *client.Client, id string) []byte {
	t.Helper()
	var data []byte
	if err := c.Call(context.Background(), http.MethodGet, "/jobs/"+id+"/report", nil, &data); err != nil {
		t.Fatalf("report %s: %v", id, err)
	}
	return data
}

// nodesView decodes GET /nodes.
type nodesView struct {
	Nodes []struct {
		ID    string `json:"node_id"`
		Addr  string `json:"addr"`
		State string `json:"state"`
		PID   int    `json:"pid"`
	} `json:"nodes"`
}

func spec(seed uint64, endTime float64) string {
	return fmt.Sprintf(`{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":%g,"seed":%d}`, endTime, seed)
}

// seedFor finds a seed whose content address rendezvous-ranks target
// first — the same placement computation the router runs.
func seedFor(t *testing.T, ids []string, target string, endTime float64, from uint64) uint64 {
	t.Helper()
	for seed := from; seed < from+10000; seed++ {
		h, err := simd.JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: endTime, Seed: seed}.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if simdcluster.Rank(ids, h)[0] == target {
			return seed
		}
	}
	t.Fatalf("no seed ranks %s first", target)
	return 0
}

// TestClusterSmoke is the acceptance scenario, end to end with real
// processes: a 3-node cluster loses a member to kill -9 mid-run and
// no submitted job is lost — queued and running work re-dispatches to
// live replicas, completed results stay serveable byte-identically
// from the shared store, and repeat submissions are cache hits with
// zero re-execution. scripts/cluster_smoke.sh runs exactly this test.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real cluster processes")
	}
	dir := t.TempDir()
	r := startRouter(t, "-nodes", "3", "-workers", "1", "-store-dir", dir,
		"-health-interval", "100ms", "-restart=false")
	c := client.New(r.base)
	ids := []string{"n1", "n2", "n3"}

	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("router healthz: %+v err %v (all members must be up before the listener starts)", h, err)
	}

	// A mix of fast jobs completes across the cluster; keep their
	// reports as the byte-identity reference.
	reports := map[string][]byte{} // cluster job id -> report
	owners := map[string]string{}
	for seed := uint64(1); seed <= 4; seed++ {
		v := submit(t, c, spec(seed, 5))
		fin := waitDone(t, c, v.ID, v.Node, v.Hash)
		reports[v.ID] = fetchReport(t, c, v.ID)
		owners[v.ID] = fin.Node
	}

	// Pick a victim that owns at least one completed job, pin it with a
	// running blocker, and queue a fast job behind it (workers=1).
	victim := ""
	for _, owner := range owners {
		victim = owner
		break
	}
	blocker := submit(t, c, spec(seedFor(t, ids, victim, 50000, 100), 50000))
	if blocker.Node != victim {
		t.Fatalf("blocker routed to %s, want %s", blocker.Node, victim)
	}
	r.waitLog(t, "the blocker running", func(rec map[string]any) bool {
		return rec["msg"] == "job running" && rec["hash"] == blocker.Hash
	})
	queued := submit(t, c, spec(seedFor(t, ids, victim, 6, 900), 6))
	if queued.Node != victim {
		t.Fatalf("queued job routed to %s, want %s", queued.Node, victim)
	}

	// kill -9 the victim's process, mid-run.
	var nv nodesView
	if err := c.Call(context.Background(), http.MethodGet, "/nodes", nil, &nv); err != nil {
		t.Fatal(err)
	}
	pid := 0
	for _, n := range nv.Nodes {
		if n.ID == victim {
			pid = n.PID
		}
	}
	if pid == 0 {
		t.Fatalf("no pid for victim %s in %+v", victim, nv)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// The health gate demotes the victim, and the failover that follows
	// moves its unfinished jobs: the router logs each step.
	r.waitLog(t, "victim "+victim+" down", func(rec map[string]any) bool {
		return rec["msg"] == "cluster member down" && rec["node_id"] == victim
	})
	movedTo := func(id string) string {
		rec := r.waitLog(t, "job "+id+" re-dispatched", func(rec map[string]any) bool {
			return rec["msg"] == "cluster job re-dispatched" && rec["job"] == id
		})
		return rec["to"].(string)
	}

	// Free the failover-stolen worker: cancel the blocker through the
	// cluster, on its new owner.
	movedTo(blocker.ID)
	if err := c.Call(context.Background(), http.MethodDelete, "/jobs/"+blocker.ID, nil, nil); err != nil {
		t.Fatalf("blocker not cancellable after failover: %v", err)
	}

	// Zero jobs lost: the queued job completes on a surviving node.
	fin := waitDone(t, c, queued.ID, movedTo(queued.ID), queued.Hash)
	if fin.Node == victim {
		t.Fatalf("queued job reports completion on the dead node %s", victim)
	}
	if fin.Redispatches == 0 {
		t.Fatal("queued job survived the kill without a recorded re-dispatch")
	}
	fetchReport(t, c, queued.ID)

	// Completed results survive their owner's death byte-identically —
	// the shared store serves them through a live replica.
	for id, want := range reports {
		got := fetchReport(t, c, id)
		if !bytes.Equal(got, want) {
			t.Fatalf("report %s (owner %s) changed after the kill", id, owners[id])
		}
	}

	// Repeat submission of a completed spec: a cache hit on a live
	// node with zero new executions.
	var before, after struct {
		Executions int64 `json:"executions"`
		Failovers  int64 `json:"cluster_failovers"`
		Nodes      []struct {
			ID    string `json:"node_id"`
			State string `json:"state"`
			Stats *struct {
				Executions int64 `json:"executions"`
			} `json:"stats"`
		} `json:"nodes"`
	}
	if err := c.Call(context.Background(), http.MethodGet, "/stats", nil, &before); err != nil {
		t.Fatal(err)
	}
	re := submit(t, c, spec(1, 5))
	if !re.CacheHitNow || re.State != "done" || re.Node == victim {
		t.Fatalf("repeat submission: %+v, want a warm hit on a live node", re)
	}
	if err := c.Call(context.Background(), http.MethodGet, "/stats", nil, &after); err != nil {
		t.Fatal(err)
	}
	if after.Executions != before.Executions {
		t.Fatalf("repeat submission re-executed: %d -> %d", before.Executions, after.Executions)
	}
	if after.Failovers == 0 {
		t.Fatal("stats recorded no failover events")
	}

	// Cluster totals equal the per-node sum from the same response.
	var sum int64
	for _, n := range after.Nodes {
		if n.Stats != nil {
			sum += n.Stats.Executions
		}
	}
	if after.Executions != sum {
		t.Fatalf("stats totals %d != node sum %d", after.Executions, sum)
	}
}
