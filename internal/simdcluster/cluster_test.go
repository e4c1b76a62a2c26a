package simdcluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/store"
	"repro/pkg/client"
)

// specJSON builds a small deterministic spec; seed varies the content
// address (and therefore the rendezvous placement).
func specJSON(seed uint64, endTime float64) []byte {
	return []byte(fmt.Sprintf(
		`{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":%g,"seed":%d}`,
		endTime, seed))
}

// hashFor computes the content address the router will route by.
func hashFor(t *testing.T, seed uint64, endTime float64) string {
	t.Helper()
	h, err := simd.JobSpec{Nodes: 2, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: endTime, Seed: seed}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// seedRankedTo finds a seed whose spec rendezvous-ranks target first
// among ids — the deterministic way to steer placement in tests.
func seedRankedTo(t *testing.T, ids []string, target string, endTime float64, from uint64) uint64 {
	t.Helper()
	for seed := from; seed < from+10000; seed++ {
		if Rank(ids, hashFor(t, seed, endTime))[0] == target {
			return seed
		}
	}
	t.Fatalf("no seed in [%d,%d) ranks %s first", from, from+10000, target)
	return 0
}

// testNode is one in-process member: a real simd server on an
// httptest listener, sharing the cluster's store directory.
type testNode struct {
	id     string
	srv    *simd.Server
	ts     *httptest.Server
	st     *store.Store
	killed bool
}

// kill simulates kill -9 for the router's purposes: the listener drops
// (refused connections) without any graceful drain.
func (n *testNode) kill() {
	if !n.killed {
		n.killed = true
		n.ts.CloseClientConnections()
		n.ts.Close()
	}
}

// newTestCluster builds n members over one shared store dir and a
// fast-probing cluster, and blocks until every member passes the gate.
func newTestCluster(t *testing.T, n, workers, queue int) (*Cluster, []*testNode) {
	t.Helper()
	dir := t.TempDir()
	nodes := make([]*testNode, n)
	c := New(Options{HealthInterval: 20 * time.Millisecond})
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := simd.NewServer(simd.Options{Workers: workers, QueueDepth: queue, Store: st, NodeID: id})
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &testNode{id: id, srv: srv, ts: ts, st: st}
		c.AddMember(id, ts.URL, 0)
	}
	t.Cleanup(func() {
		c.Close()
		for _, nd := range nodes {
			nd.kill()
			// Close waits for admitted jobs; cancel leftovers (blockers)
			// first so teardown never hangs on a long simulation.
			for _, j := range nd.srv.Jobs() {
				nd.srv.Cancel(j.ID())
			}
			nd.srv.Close()
			nd.st.Close()
		}
	})
	for _, nd := range nodes {
		if err := c.WaitUp(nd.id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c, nodes
}

func memberIDs(nodes []*testNode) []string {
	ids := make([]string, len(nodes))
	for i, nd := range nodes {
		ids[i] = nd.id
	}
	return ids
}

func nodeByID(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	t.Fatalf("unknown node %s", id)
	return nil
}

// waitChange blocks until cond holds, looking again each time the
// cluster broadcasts a membership or placement change.
func waitChange(t *testing.T, c *Cluster, what string, cond func() bool) {
	t.Helper()
	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	for {
		changed := c.changes()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-deadline.C:
			t.Fatalf("%s: still not so after 20s", what)
		}
	}
}

// ownerOf returns where a cluster job lives now: the member's node id,
// its base URL, and the id the job has there.
func ownerOf(t *testing.T, c *Cluster, cid string) (node, base, localID string) {
	t.Helper()
	j, err := c.job(cid)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return j.node, c.members[j.node].api().Base, j.localID
}

// followOwner blocks on the job's event stream at its owner — to the
// first record, or to the end of the stream, which is when the job
// settles — and reports whether the owner served it.
func followOwner(t *testing.T, c *Cluster, cid string, firstRecord bool) bool {
	t.Helper()
	_, base, localID := ownerOf(t, c, cid)
	resp, err := http.Get(base + "/jobs/" + localID + "/events")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for {
		if _, err := r.ReadString('\n'); err != nil || firstRecord {
			return resp.StatusCode == http.StatusOK
		}
	}
}

// waitState blocks until a cluster job reaches want: between looks at
// it through the router it waits on the owner's event stream, or, with
// the owner gone, on the router moving the job.
func waitState(t *testing.T, c *Cluster, cid string, want simd.State) JobView {
	t.Helper()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for {
		changed := c.changes()
		v, err := c.Job(cid)
		if err == nil && v.State == want {
			return v
		}
		if err == nil && client.Terminal(v.State) {
			t.Fatalf("job %s settled %s (%s), want %s", cid, v.State, v.Error, want)
		}
		if followOwner(t, c, cid, want == simd.StateRunning) {
			continue
		}
		select {
		case <-changed:
		case <-deadline.C:
			t.Fatalf("job %s never reached %s (last: %+v err %v)", cid, want, v, err)
		}
	}
}

func waitMemberState(t *testing.T, c *Cluster, id string, want MemberState) {
	t.Helper()
	waitChange(t, c, "member "+id+" "+string(want), func() bool {
		m, ok := c.Member(id)
		return ok && m.State() == want
	})
}

func TestRankDeterministicAndMinimallyDisruptive(t *testing.T) {
	ids := []string{"n1", "n2", "n3", "n4"}
	key := "a1b2c3"
	r1 := Rank(ids, key)
	r2 := Rank([]string{"n4", "n2", "n1", "n3"}, key)
	if strings.Join(r1, ",") != strings.Join(r2, ",") {
		t.Fatalf("rank depends on input order: %v vs %v", r1, r2)
	}
	// Rendezvous property: removing one node only promotes the others,
	// never reorders them.
	without := Rank([]string{"n1", "n2", "n4"}, key)
	var filtered []string
	for _, id := range r1 {
		if id != "n3" {
			filtered = append(filtered, id)
		}
	}
	if strings.Join(without, ",") != strings.Join(filtered, ",") {
		t.Fatalf("removal reshuffled survivors: %v vs %v", without, filtered)
	}
	// Different keys spread: among many keys every node wins sometimes.
	wins := map[string]int{}
	for seed := 0; seed < 200; seed++ {
		wins[Rank(ids, fmt.Sprintf("key-%d", seed))[0]]++
	}
	for _, id := range ids {
		if wins[id] == 0 {
			t.Fatalf("node %s never ranked first across 200 keys: %v", id, wins)
		}
	}
	if Rank(nil, key) != nil {
		t.Fatal("empty membership must rank to nil")
	}
}

func TestHealthGateBeforeTraffic(t *testing.T) {
	c := New(Options{HealthInterval: 20 * time.Millisecond})
	defer c.Close()
	// A member that never answers stays "starting": registered is not up.
	c.AddMember("ghost", "http://127.0.0.1:1", 0)
	if err := c.WaitUp("ghost", 200*time.Millisecond); err == nil {
		t.Fatal("WaitUp succeeded for an unreachable member")
	}
	if m, _ := c.Member("ghost"); m.State() != MemberStarting {
		t.Fatalf("unreachable member state = %s, want starting", m.State())
	}
	// No eligible members: submissions answer 503, healthz says degraded.
	if _, err := c.Submit(specJSON(1, 5)); err == nil {
		t.Fatal("submit with no live member must fail")
	} else if se := err.(*StatusError); se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit error code = %d, want 503", se.Code)
	}
	rt := httptest.NewServer(c.Handler())
	defer rt.Close()
	resp, err := http.Get(rt.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status  string `json:"status"`
		NodesUp int    `json:"nodes_up"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Status != "degraded" || hz.NodesUp != 0 {
		t.Fatalf("healthz with no members up: %+v err %v", hz, err)
	}
	// An identity mismatch is a probe failure: a server answering with
	// the wrong node_id must never pass the gate.
	imp := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","node_id":"someone-else"}`))
	}))
	defer imp.Close()
	c.AddMember("n9", imp.URL, 0)
	if err := c.WaitUp("n9", 300*time.Millisecond); err == nil {
		t.Fatal("member with mismatched node_id passed the health gate")
	}
}

// TestFailThresholdBoundary pins failThreshold at its boundary: an up
// member survives two consecutive failed probes and is down after the
// third. The health loop's interval is an hour, so only the probes the
// test makes count.
func TestFailThresholdBoundary(t *testing.T) {
	var failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok","node_id":"n1"}`))
	}))
	defer ts.Close()
	c := New(Options{HealthInterval: time.Hour})
	defer c.Close()
	m := c.AddMember("n1", ts.URL, 0)
	c.probe(m)
	if st := m.State(); st != MemberUp {
		t.Fatalf("after a passing probe: state %s, want up", st)
	}
	failing.Store(true)
	for i := 1; i <= 3; i++ {
		c.probe(m)
		want := MemberUp
		if i == 3 {
			want = MemberDown
		}
		if st := m.State(); st != want {
			t.Fatalf("after %d failed probes: state %s, want %s", i, st, want)
		}
	}
}

func TestRoutingIsContentAddressedAndCacheAware(t *testing.T) {
	c, nodes := newTestCluster(t, 3, 2, 16)
	ids := memberIDs(nodes)

	// Placement follows the rendezvous rank of the content address.
	seed := seedRankedTo(t, ids, "n2", 5, 100)
	res, err := c.Submit(specJSON(seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != "n2" {
		t.Fatalf("job routed to %s, want rank winner n2", res.Node)
	}
	waitState(t, c, res.ID, simd.StateDone)

	// Resubmission routes back to the owner and is served from cache:
	// zero additional executions anywhere in the cluster.
	before := c.Stats()
	re, err := c.Submit(specJSON(seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	if re.Node != "n2" || !re.CacheHitNow || re.State != simd.StateDone {
		t.Fatalf("resubmission: node %s cacheHit %v state %s, want warm n2 hit", re.Node, re.CacheHitNow, re.State)
	}
	after := c.Stats()
	if after.Executions != before.Executions {
		t.Fatalf("resubmission re-executed: %d -> %d", before.Executions, after.Executions)
	}

	// The two cluster jobs return byte-identical reports.
	r1, err := c.Report(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Report(re.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) || len(r1) == 0 {
		t.Fatal("reports for one spec are not byte-identical")
	}
}

func TestSubmitSpillsOnSaturatedMember(t *testing.T) {
	c, nodes := newTestCluster(t, 2, 1, 1)
	ids := memberIDs(nodes)

	// Saturate n1: one running blocker plus one queued (workers=1,
	// queue=1).
	var blockers []string
	for i := 0; i < 2; i++ {
		seed := seedRankedTo(t, ids, "n1", 50000, uint64(1000+i*10000))
		res, err := c.Submit(specJSON(seed, 50000))
		if err != nil {
			t.Fatal(err)
		}
		if res.Node != "n1" {
			t.Fatalf("blocker %d routed to %s, want n1", i, res.Node)
		}
		blockers = append(blockers, res.ID)
	}
	// A fast job ranking n1 first spills to n2 instead of bouncing 429.
	seed := seedRankedTo(t, ids, "n1", 5, 30000)
	res, err := c.Submit(specJSON(seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != "n2" {
		t.Fatalf("spill went to %s, want n2", res.Node)
	}
	waitState(t, c, res.ID, simd.StateDone)
	for _, cid := range blockers {
		if _, err := c.Cancel(cid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaturatedClusterOffersSmallestRetryAfter: when every member answers
// 429, the router's 429 carries the smallest Retry-After by value — 9 s
// over 12 s whichever member the rank tries first.
func TestSaturatedClusterOffersSmallestRetryAfter(t *testing.T) {
	for _, hints := range [][2]string{{"9", "12"}, {"12", "9"}} {
		c := New(Options{HealthInterval: 10 * time.Millisecond})
		defer c.Close()
		for i, id := range []string{"n1", "n2"} {
			hint := hints[i]
			mux := http.NewServeMux()
			mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(map[string]string{"status": "ok", "node_id": id})
			})
			mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", hint)
				simd.WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": "queue full"})
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			c.AddMember(id, ts.URL, 0)
			if err := c.WaitUp(id, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		_, err := c.Submit(specJSON(1, 5))
		se, ok := err.(*StatusError)
		if !ok || se.Code != http.StatusTooManyRequests || se.RetryAfter != "9" {
			t.Errorf("members hinting %v: err %v, want 429 with Retry-After 9", hints, err)
		}
	}
}

func TestFailoverOnNodeDeath(t *testing.T) {
	c, nodes := newTestCluster(t, 3, 1, 16)
	ids := memberIDs(nodes)

	// A fast job completes somewhere; its owner becomes the victim.
	res, err := c.Submit(specJSON(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, res.ID, simd.StateDone)
	doneReport, err := c.Report(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	victim := res.Node

	// Pin the victim with a running blocker and a queued fast job.
	bseed := seedRankedTo(t, ids, victim, 50000, 500)
	blocker, err := c.Submit(specJSON(bseed, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if blocker.Node != victim {
		t.Fatalf("blocker routed to %s, want %s", blocker.Node, victim)
	}
	waitState(t, c, blocker.ID, simd.StateRunning)
	qseed := seedRankedTo(t, ids, victim, 6, 800)
	queued, err := c.Submit(specJSON(qseed, 6))
	if err != nil {
		t.Fatal(err)
	}
	if queued.Node != victim {
		t.Fatalf("queued job routed to %s, want %s", queued.Node, victim)
	}

	// Kill the victim. The health loop demotes it and fails its
	// unfinished jobs over to live replicas.
	nodeByID(t, nodes, victim).kill()
	waitMemberState(t, c, victim, MemberDown)

	// The blocker resumes elsewhere — the failover that follows the
	// demotion moves it — and cancelling it through the cluster frees the
	// stolen worker.
	waitChange(t, c, "blocker moved off the dead node", func() bool {
		node, _, _ := ownerOf(t, c, blocker.ID)
		return node != victim
	})
	if _, err := c.Cancel(blocker.ID); err != nil {
		t.Fatalf("blocker not cancellable after failover: %v", err)
	}

	// The queued job completes on a surviving node.
	v := waitState(t, c, queued.ID, simd.StateDone)
	if v.Node == victim {
		t.Fatalf("queued job finished on the dead node %s", victim)
	}
	if v.Redispatches == 0 {
		t.Fatal("queued job shows zero redispatches after its owner died")
	}

	// The job that finished on the victim BEFORE the kill is still
	// serveable: its report re-dispatches and the shared store returns
	// the identical bytes.
	st, err := c.Job(res.ID)
	if err != nil || st.State != simd.StateDone {
		t.Fatalf("dead owner's done job status: %+v err %v", st, err)
	}
	if !st.Stale {
		t.Fatal("status of a done job on a dead owner should be marked stale")
	}
	got, err := c.Report(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doneReport) {
		t.Fatal("report after owner death is not byte-identical")
	}

	cs := c.Stats()
	if cs.Failovers == 0 || cs.Redispatches < 2 {
		t.Fatalf("failovers %d redispatches %d, want >=1 and >=2", cs.Failovers, cs.Redispatches)
	}
}

func TestDrainMovesWorkAndKeepsNodeReadable(t *testing.T) {
	// Two workers per node so the failed-over blocker cannot starve the
	// fast jobs that follow it onto the surviving member.
	c, nodes := newTestCluster(t, 2, 2, 16)
	ids := memberIDs(nodes)

	bseed := seedRankedTo(t, ids, "n1", 50000, 2000)
	blocker, err := c.Submit(specJSON(bseed, 50000))
	if err != nil {
		t.Fatal(err)
	}
	if blocker.Node != "n1" {
		t.Fatalf("blocker on %s, want n1", blocker.Node)
	}
	waitState(t, c, blocker.ID, simd.StateRunning)

	if err := c.Drain("n1", true); err != nil {
		t.Fatal(err)
	}
	// Drain moves the work before it returns: the blocker is off the
	// draining node already.
	if v, err := c.Job(blocker.ID); err != nil || v.Node != "n2" {
		t.Fatalf("blocker did not move off the draining node: %+v err %v", v, err)
	}
	// New work never routes to a draining member, even when it ranks
	// first.
	seed := seedRankedTo(t, ids, "n1", 5, 4000)
	res, err := c.Submit(specJSON(seed, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != "n2" {
		t.Fatalf("drained node received new work (%s)", res.Node)
	}
	waitState(t, c, res.ID, simd.StateDone)
	// A draining node is still a member: /nodes reports it up+draining.
	for _, n := range c.Members() {
		if n.ID == "n1" && (n.State != MemberUp || !n.Draining) {
			t.Fatalf("draining node snapshot: %+v", n)
		}
	}

	// Undrain: the node takes traffic again.
	if err := c.Drain("n1", false); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Submit(specJSON(seed+50000, 5))
	if err != nil {
		t.Fatal(err)
	}
	_ = res2
	back, err := c.Submit(specJSON(seedRankedTo(t, ids, "n1", 5, 60000), 5))
	if err != nil {
		t.Fatal(err)
	}
	if back.Node != "n1" {
		t.Fatalf("undrained node still shunned (%s)", back.Node)
	}
	if _, err := c.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

func TestClusterStatsAndMetricsAggregate(t *testing.T) {
	c, _ := newTestCluster(t, 3, 2, 16)
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := c.Submit(specJSON(seed, 5))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, res.ID, simd.StateDone)
	}

	// Totals must equal the per-node breakdown from the same response.
	cs := c.Stats()
	var sum simd.Stats
	scraped := 0
	for _, n := range cs.Nodes {
		if n.Stats != nil {
			scraped++
			sumStats(&sum, n.Stats)
		}
	}
	if scraped != 3 {
		t.Fatalf("scraped %d/3 members", scraped)
	}
	if cs.Executions != sum.Executions || cs.Workers != sum.Workers ||
		cs.Jobs != sum.Jobs || cs.Cache.Hits != sum.Cache.Hits ||
		cs.Store == nil || sum.Store == nil || cs.Store.Puts != sum.Store.Puts {
		t.Fatalf("totals diverge from node breakdown:\n total %+v\n sum   %+v", cs.Stats, sum)
	}
	if cs.Executions != 5 {
		t.Fatalf("cluster executions = %d, want 5 (one per unique spec)", cs.Executions)
	}
	if cs.Submitted != 5 || cs.ClusterJobs != 5 {
		t.Fatalf("router accounting: %+v", cs)
	}

	// /metrics merges member families under the router's own.
	rt := httptest.NewServer(c.Handler())
	defer rt.Close()
	resp, err := http.Get(rt.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Get("simdcluster_submitted_total"); !ok || v != 5 {
		t.Fatalf("simdcluster_submitted_total = %v, %v", v, ok)
	}
	if v := snap.Sum("simd_executions_total"); v != 5 {
		t.Fatalf("merged simd_executions_total = %v, want 5", v)
	}
	if v, ok := snap.Get("simdcluster_nodes", "state", "up"); !ok || v != 3 {
		t.Fatalf("simdcluster_nodes{state=up} = %v, %v", v, ok)
	}
}

// TestClientRunThroughRouter: the SDK's Run works against a router as
// it does against a daemon. The router neither waits on POST /jobs?wait
// nor serves an events stream, so Run carries on from the returned id —
// status polls, then the report — and hands back the owning member's
// report byte for byte, on a miss and on a hit.
func TestClientRunThroughRouter(t *testing.T) {
	c, nodes := newTestCluster(t, 2, 2, 8)
	rt := httptest.NewServer(c.Handler())
	defer rt.Close()
	sdk := client.New(rt.URL, client.WithPollInterval(2*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := json.RawMessage(specJSON(7, 5))
	for _, hit := range []bool{false, true} {
		st, report, err := sdk.Run(ctx, spec)
		if err != nil {
			t.Fatalf("Run through the router (hit=%v): %v", hit, err)
		}
		if st.State != client.StateDone || st.CacheHit != hit || !strings.HasPrefix(st.ID, "c") {
			t.Fatalf("Run through the router (hit=%v) settled %+v", hit, st)
		}
		v, err := c.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		owner := nodeByID(t, nodes, v.Node)
		local, err := owner.srv.Job(ownerLocalID(t, c, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := local.Report()
		if !ok || !bytes.Equal(report, want) {
			t.Fatalf("Run through the router (hit=%v) returned bytes other than member %s's report", hit, v.Node)
		}
	}
	var execs int64
	for _, nd := range nodes {
		execs += nd.srv.Executions()
	}
	if execs != 1 {
		t.Fatalf("executions across members = %d, want 1", execs)
	}
}

// ownerLocalID returns the id a cluster job has on its owning member.
func ownerLocalID(t *testing.T, c *Cluster, cid string) string {
	t.Helper()
	_, _, localID := ownerOf(t, c, cid)
	return localID
}

// TestJobTableIsBounded: the router keeps the newest maxClusterJobs job
// records in submission order, an evicted id answers 404 through its
// handler, and the resident table is emptied at its cap.
func TestJobTableIsBounded(t *testing.T) {
	c := New(Options{})
	defer c.Close()
	const extra = 3
	done := client.JobStatus{State: client.StateDone}
	c.mu.Lock()
	for i := 1; i <= maxClusterJobs+extra; i++ {
		c.addJobLocked(&clusterJob{id: fmt.Sprint("c", i), last: done})
	}
	for i := 0; i <= maxResidentSpecs; i++ {
		c.observeLocked(&clusterJob{hash: fmt.Sprint(i)}, done)
	}
	resident := len(c.resident)
	c.mu.Unlock()
	if resident != 1 {
		t.Errorf("resident table holds %d specs past its cap of %d, want 1", resident, maxResidentSpecs)
	}
	for i, want := range map[int]int{1: 404, extra: 404, extra + 1: 200, maxClusterJobs + extra: 200} {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprint("/jobs/c", i), nil))
		if rec.Code != want {
			t.Errorf("GET /jobs/c%d: %d, want %d", i, rec.Code, want)
		}
	}
	jobs := c.Jobs()
	if len(jobs) != maxClusterJobs || c.Stats().ClusterJobs != maxClusterJobs {
		t.Fatalf("Jobs() lists %d, Stats() counts %d; want %d", len(jobs), c.Stats().ClusterJobs, maxClusterJobs)
	}
	for i, j := range jobs {
		if want := fmt.Sprint("c", extra+1+i); j.ID != want {
			t.Fatalf("Jobs()[%d] is %s, want %s: not submission order", i, j.ID, want)
		}
	}
}
