// Package simdcluster turns N simd daemons into one service: an HTTP
// router that shards jobs across members by their content address,
// health-gates membership, and fails work over to live replicas when a
// node dies or drains.
//
// Placement is rendezvous hashing over the job's canonical spec hash
// (see Rank), refined by cache residency: a spec whose result is known
// to live in node K's caches routes back to K, so repeat submissions
// are store hits instead of re-executions. Members share one
// content-addressed store directory (each with its own journal), which
// is what makes failover cheap: a re-dispatched job that the dead node
// had already completed resolves as a store hit on its new owner, byte
// identical, with zero re-execution.
//
// Membership is health-gated: a registered member is "starting" and
// receives nothing until /healthz passes, mirroring the embedded-
// cluster lifecycle where a node is not started until it answers.
// After FailThreshold consecutive probe failures an up member is
// marked down, and every non-terminal job mapped to it is re-
// dispatched to the next live replica in its rank.
package simdcluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/simdclient"
	"repro/pkg/client"
)

// Options configures a Cluster.
type Options struct {
	// HealthInterval is the probe cadence (default 1s).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive probe failures demote an up
	// member to down (default 3).
	FailThreshold int
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// Replicas caps how many candidate members one dispatch tries before
	// giving up (0: all eligible members).
	Replicas int
	// Logger receives membership and failover logs; nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// clusterJob is the router's record of one submission: enough to proxy
// reads to its current owner and to re-dispatch the canonical spec
// when that owner disappears.
type clusterJob struct {
	id   string
	hash string
	// spec is the canonical spec document, kept verbatim so a failover
	// re-submission hashes identically on the new owner.
	spec json.RawMessage

	// Guarded by Cluster.mu:
	node         string // current owner member id
	localID      string // the owner's job id for this work
	last         client.JobStatus
	redispatches int
}

// StatusError is an error with an HTTP status, so the router can
// answer proxy failures precisely (429 with Retry-After, 503 when no
// replica is live, 404 for unknown ids).
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter string // optional Retry-After header value
}

func (e *StatusError) Error() string { return e.Msg }

func statusErrf(code int, format string, args ...any) *StatusError {
	return &StatusError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Cluster routes jobs across health-gated simd members.
type Cluster struct {
	opts Options
	log  *slog.Logger
	reg  *obs.Registry

	mu      sync.Mutex
	members map[string]*Member
	order   []string // registration order, for stable display
	jobs    map[string]*clusterJob
	jobSeq  []*clusterJob
	// resident maps spec hash → the member that last completed it, so
	// repeat submissions route to warm caches ahead of ring rank.
	resident map[string]string
	// changed is closed, and replaced, when a member changes state or a
	// job changes owner: the broadcast WaitUp blocks on.
	changed chan struct{}

	nextID  atomic.Int64
	started time.Time
	stop    chan struct{}
	loop    sync.WaitGroup
	closed  bool

	submitted    *obs.Counter
	failovers    *obs.Counter
	redispatches *obs.Counter
	proxyErrors  *obs.Counter
	nodesUp      *obs.GaugeVec
}

// New builds a cluster and starts its health loop. Register members
// with AddMember; Close stops probing.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		opts:     opts,
		log:      opts.Logger,
		reg:      obs.NewRegistry(),
		members:  make(map[string]*Member),
		jobs:     make(map[string]*clusterJob),
		resident: make(map[string]string),
		changed:  make(chan struct{}),
		started:  time.Now(),
		stop:     make(chan struct{}),
	}
	c.submitted = c.reg.Counter("simdcluster_submitted_total", "Jobs accepted by the router.")
	c.failovers = c.reg.Counter("simdcluster_failovers_total", "Node-loss/drain events that triggered job re-dispatch.")
	c.redispatches = c.reg.Counter("simdcluster_redispatches_total", "Jobs moved to another member after their owner died or drained.")
	c.proxyErrors = c.reg.Counter("simdcluster_proxy_errors_total", "Member requests that failed at transport level.")
	c.nodesUp = c.reg.GaugeVec("simdcluster_nodes", "Members per lifecycle state.", "state")
	c.reg.OnScrape(func() {
		counts := map[MemberState]float64{MemberStarting: 0, MemberUp: 0, MemberDown: 0}
		for _, m := range c.Members() {
			counts[m.State]++
		}
		for st, n := range counts {
			c.nodesUp.With(string(st)).Set(n)
		}
	})
	c.loop.Add(1)
	go c.healthLoop()
	return c
}

// Close stops the health loop. Members are external processes and are
// not touched.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.loop.Wait()
}

// AddMember registers (or re-registers, after a supervisor respawn) a
// member at base. It enters the lifecycle as starting and receives no
// dispatches until a health probe passes; use WaitUp to gate on that.
func (c *Cluster) AddMember(id, base string, pid int) *Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		m = &Member{id: id}
		c.members[id] = m
		c.order = append(c.order, id)
	}
	m.rebase(base, pid, c.opts.ProbeTimeout)
	c.log.Info("cluster member registered", "node_id", id, "addr", base, "pid", pid)
	return m
}

// changes returns the channel the next membership or placement change
// closes. Take it before reading the state you wait on, so no change
// falls between the read and the wait.
func (c *Cluster) changes() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.changed
}

// notify wakes everyone blocked on changes.
func (c *Cluster) notify() {
	c.mu.Lock()
	close(c.changed)
	c.changed = make(chan struct{})
	c.mu.Unlock()
}

// Member returns a registered member by id.
func (c *Cluster) Member(id string) (*Member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	return m, ok
}

// Members snapshots every member in registration order.
func (c *Cluster) Members() []NodeStatus {
	c.mu.Lock()
	ms := make([]*Member, 0, len(c.order))
	for _, id := range c.order {
		ms = append(ms, c.members[id])
	}
	c.mu.Unlock()
	out := make([]NodeStatus, len(ms))
	for i, m := range ms {
		out[i] = m.snapshot()
	}
	return out
}

// WaitUp blocks until the member passes its health gate (or the
// timeout elapses) — "started" means answering, not merely spawned.
func (c *Cluster) WaitUp(id string, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		changed := c.changes()
		m, ok := c.Member(id)
		if ok && m.State() == MemberUp {
			return nil
		}
		select {
		case <-changed:
		case <-deadline.C:
			st := MemberState("unregistered")
			if ok {
				st = m.State()
			}
			return fmt.Errorf("simdcluster: member %s not up after %s (state %s)", id, timeout, st)
		}
	}
}

// Drain marks a member ineligible for new work and moves its
// unfinished jobs to live replicas; Drain(id, false) re-admits it.
// The member itself is untouched — a draining node still answers
// reads, which is the point: drain, watch it idle, then stop it.
func (c *Cluster) Drain(id string, on bool) error {
	m, ok := c.Member(id)
	if !ok {
		return statusErrf(http.StatusNotFound, "unknown node %q", id)
	}
	m.mu.Lock()
	m.draining = on
	m.mu.Unlock()
	c.log.Info("cluster member drain", "node_id", id, "draining", on)
	if on {
		c.failoverFrom(id, "drain")
	}
	c.notify()
	return nil
}

// healthLoop probes every member each interval and applies the
// lifecycle transitions.
func (c *Cluster) healthLoop() {
	defer c.loop.Done()
	t := time.NewTicker(c.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.eachMember(c.probe)
	}
}

// eachMember calls fn for every registered member at once, each call on
// its own goroutine, and returns when all of them have.
func (c *Cluster) eachMember(fn func(*Member)) {
	c.mu.Lock()
	ms := make([]*Member, 0, len(c.members))
	for _, m := range c.members {
		ms = append(ms, m)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			fn(m)
		}(m)
	}
	wg.Wait()
}

// probe runs one health check and applies the state machine.
func (c *Cluster) probe(m *Member) {
	h, err := m.probeClient().Health()
	if err == nil && h.NodeID != "" && h.NodeID != m.id {
		// Right port, wrong process: treat an identity mismatch as a
		// failure so a recycled address cannot impersonate a member.
		err = fmt.Errorf("node identity mismatch: probe answered as %q", h.NodeID)
	}
	m.mu.Lock()
	var wentUp, wentDown bool
	if err == nil {
		m.failures = 0
		m.lastErr = ""
		m.lastSeen = time.Now()
		if m.state != MemberUp {
			m.state = MemberUp
			wentUp = true
		}
	} else {
		m.failures++
		m.lastErr = err.Error()
		if m.state == MemberUp && m.failures >= c.opts.FailThreshold {
			m.state = MemberDown
			wentDown = true
		}
	}
	id, failures := m.id, m.failures
	m.mu.Unlock()

	if wentUp {
		c.log.Info("cluster member up", "node_id", id)
	}
	if wentDown {
		c.log.Warn("cluster member down", "node_id", id, "failures", failures, "error", err.Error())
		c.failoverFrom(id, "down")
	}
	if wentUp || wentDown {
		c.notify()
	}
}

// failoverFrom re-dispatches every non-terminal job owned by the named
// member to a live replica. Jobs that already finished keep their
// mapping — their results live in the shared store, and a later report
// fetch re-dispatches on demand (resolving as a store hit).
func (c *Cluster) failoverFrom(id, reason string) {
	c.mu.Lock()
	var moving []*clusterJob
	for _, j := range c.jobSeq {
		if j.node == id && !client.Terminal(j.last.State) {
			moving = append(moving, j)
		}
	}
	c.mu.Unlock()
	if len(moving) == 0 {
		return
	}
	c.failovers.Inc()
	c.log.Warn("cluster failover", "node_id", id, "reason", reason, "jobs", len(moving))
	for _, j := range moving {
		if err := c.redispatch(j, id); err != nil {
			c.log.Error("cluster failover re-dispatch failed", "job", j.id, "error", err.Error())
		}
	}
}

// SubmitResult is the router's submit response: the owning member's
// answer with the cluster-scoped job id and node attribution.
type SubmitResult struct {
	client.Submission
	// Node is the member the job was dispatched to.
	Node string `json:"node_id"`
}

// Submit validates, canonicalizes and routes one spec document.
func (c *Cluster) Submit(body []byte) (*SubmitResult, error) {
	var spec simd.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, statusErrf(http.StatusBadRequest, "bad job spec: %v", err)
	}
	canon, hash, err := spec.Address()
	if err != nil {
		return nil, statusErrf(http.StatusBadRequest, "%v", err)
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		return nil, statusErrf(http.StatusInternalServerError, "%v", err)
	}

	m, sub, err := c.dispatch(hash, raw, "")
	if err != nil {
		return nil, err
	}
	j := &clusterJob{
		id:   fmt.Sprintf("c%d", c.nextID.Add(1)),
		hash: hash,
		spec: raw,
	}
	c.mu.Lock()
	j.node, j.localID = m.ID(), sub.ID
	c.observeLocked(j, sub.JobStatus)
	c.jobs[j.id] = j
	c.jobSeq = append(c.jobSeq, j)
	c.mu.Unlock()
	c.submitted.Inc()

	res := &SubmitResult{Submission: sub, Node: m.ID()}
	res.ID = j.id
	return res, nil
}

// observeLocked folds st in as the router's latest observation of the
// job on its current owner; the caller holds c.mu. This is the one place
// a completed spec becomes resident.
func (c *Cluster) observeLocked(j *clusterJob, st client.JobStatus) {
	j.last = st
	if st.State == client.StateDone {
		c.resident[j.hash] = j.node
	}
}

// candidates orders eligible members for a hash: the cache-resident
// owner first (routing to warm caches beats ring rank), then the
// rendezvous rank, capped at Replicas attempts.
func (c *Cluster) candidates(hash, exclude string) []*Member {
	c.mu.Lock()
	ids := make([]string, 0, len(c.members))
	for id, m := range c.members {
		if id != exclude && m.eligible() {
			ids = append(ids, id)
		}
	}
	ranked := Rank(ids, hash)
	if owner, ok := c.resident[hash]; ok && owner != exclude {
		for i, id := range ranked {
			if id == owner && i > 0 {
				copy(ranked[1:i+1], ranked[:i])
				ranked[0] = owner
				break
			}
		}
	}
	if c.opts.Replicas > 0 && len(ranked) > c.opts.Replicas {
		ranked = ranked[:c.opts.Replicas]
	}
	out := make([]*Member, len(ranked))
	for i, id := range ranked {
		out[i] = c.members[id]
	}
	c.mu.Unlock()
	return out
}

// dispatch submits the canonical spec to the best candidate, walking
// down the rank on capacity or transport failures. A member answering
// 429 is skipped (the next replica absorbs the spill); only when every
// candidate is saturated does the caller see 429, carrying the
// smallest Retry-After any member offered.
func (c *Cluster) dispatch(hash string, raw []byte, exclude string) (*Member, client.Submission, error) {
	var (
		none       client.Submission
		sawFull    bool
		retryAfter string        // the smallest hint's header value
		minWait    time.Duration // and its parsed duration
		lastErr    error
	)
	cands := c.candidates(hash, exclude)
	for _, m := range cands {
		var sub client.Submission
		err := m.api().Call(context.TODO(), http.MethodPost, "/jobs", raw, &sub)
		var se *simdclient.StatusError
		switch {
		case err == nil:
			return m, sub, nil
		case !errors.As(err, &se):
			c.proxyErrors.Inc()
			lastErr = err
		case se.Code == http.StatusTooManyRequests:
			sawFull = true
			if d, ok := simdclient.RetryAfterHint(se.Header); ok && (retryAfter == "" || d < minWait) {
				retryAfter, minWait = se.Header.Get("Retry-After"), d
			}
		case se.Code == http.StatusBadRequest:
			// A spec the member rejects is a client error, not a routing
			// problem; trying replicas would just repeat it.
			return nil, none, statusErrf(se.Code, "%s", refusal(se))
		default:
			lastErr = fmt.Errorf("member %s: status %d: %s", m.ID(), se.Code, refusal(se))
		}
	}
	if sawFull {
		return nil, none, &StatusError{
			Code: http.StatusTooManyRequests, Msg: "every live replica is at capacity", RetryAfter: retryAfter,
		}
	}
	if lastErr != nil {
		return nil, none, statusErrf(http.StatusServiceUnavailable, "no live replica accepted the job: %v", lastErr)
	}
	return nil, none, statusErrf(http.StatusServiceUnavailable, "no live replica available (%d members eligible)", len(cands))
}

// refusal is the message of a member's error body ("" when it sent
// something else).
func refusal(se *simdclient.StatusError) string {
	var body client.ErrorBody
	json.Unmarshal([]byte(se.Body), &body)
	return body.Error
}

// redispatch moves one job off its (dead or draining) owner: the
// canonical spec is re-submitted to the next candidate in its rank.
// The shared store makes this idempotent — work the old owner finished
// resolves as a store hit on the new one.
func (c *Cluster) redispatch(j *clusterJob, exclude string) error {
	m, sub, err := c.dispatch(j.hash, j.spec, exclude)
	if err != nil {
		return err
	}
	c.mu.Lock()
	j.node, j.localID = m.ID(), sub.ID
	c.observeLocked(j, sub.JobStatus)
	j.redispatches++
	c.mu.Unlock()
	c.notify()
	c.redispatches.Inc()
	c.log.Info("cluster job re-dispatched", "job", j.id, "to", m.ID(), "state", sub.State)
	return nil
}

// JobView is the wire form of one cluster job.
type JobView struct {
	client.JobStatus
	// Node is the member currently owning the job.
	Node string `json:"node_id"`
	// Redispatches counts failover moves this job survived.
	Redispatches int `json:"redispatches,omitempty"`
	// Stale marks a status served from the router's last observation
	// because the owner is unreachable.
	Stale bool `json:"stale,omitempty"`
}

func (c *Cluster) view(j *clusterJob, stale bool) JobView {
	c.mu.Lock()
	v := JobView{JobStatus: j.last, Node: j.node, Redispatches: j.redispatches, Stale: stale}
	c.mu.Unlock()
	v.ID = j.id
	return v
}

// job resolves a cluster job id.
func (c *Cluster) job(cid string) (*clusterJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[cid]
	if !ok {
		return nil, statusErrf(http.StatusNotFound, "unknown job %q", cid)
	}
	return j, nil
}

// errOwnerGone is askOwner's answer when nothing could be asked: the
// job's owner is unregistered, still starting, or down.
var errOwnerGone = errors.New("owner unreachable")

// askOwner is the router's one proxy step, shared by Job, Report and
// Cancel: resolve the job's current owner, run the exchange on it
// (method on the member's /jobs/{local id}+suffix, answer decoded into v
// as simdclient.Call does), and count a transport failure. When the
// owner is gone — unreachable, silent, or restarted and answering 404
// for an id it no longer knows — and move is set, the job is
// re-dispatched to the next replica and moved is true: the record then
// holds the new owner's submit answer, and v is untouched.
func (c *Cluster) askOwner(j *clusterJob, method, suffix string, v any, move bool) (moved bool, err error) {
	c.mu.Lock()
	m, localID, node := c.members[j.node], j.localID, j.node
	c.mu.Unlock()
	err = errOwnerGone
	if m != nil && m.reachable() {
		if err = m.api().Call(context.TODO(), method, "/jobs/"+localID+suffix, nil, v); err == nil {
			return false, nil
		}
		var se *simdclient.StatusError
		if !errors.As(err, &se) {
			c.proxyErrors.Inc()
		} else if se.Code != http.StatusNotFound {
			return false, err // the owner's own answer stands
		}
	}
	if !move {
		return false, err
	}
	return true, c.redispatch(j, node)
}

// observe folds a freshly proxied status into the job record.
func (c *Cluster) observe(j *clusterJob, st client.JobStatus) {
	c.mu.Lock()
	c.observeLocked(j, st)
	c.mu.Unlock()
}

// Job returns one job's live status, proxied from its owner. When the
// owner is gone the job is re-dispatched if still unfinished;
// finished jobs answer from the router's last observation.
func (c *Cluster) Job(cid string) (JobView, error) {
	j, err := c.job(cid)
	if err != nil {
		return JobView{}, err
	}
	c.mu.Lock()
	fin := client.Terminal(j.last.State)
	c.mu.Unlock()
	var st client.JobStatus
	moved, err := c.askOwner(j, http.MethodGet, "", &st, !fin)
	switch {
	case err == nil && !moved:
		c.observe(j, st)
	case err != nil && !fin:
		return JobView{}, err
	}
	return c.view(j, err != nil), nil
}

// Jobs lists every cluster job, refreshed against the reachable
// members in one fan-out (one /jobs listing per member, not one call
// per job).
func (c *Cluster) Jobs() []JobView {
	c.refreshJobs()
	c.mu.Lock()
	seq := append([]*clusterJob(nil), c.jobSeq...)
	c.mu.Unlock()
	out := make([]JobView, len(seq))
	for i, j := range seq {
		out[i] = c.view(j, false)
	}
	return out
}

// refreshJobs folds each reachable member's job listing into the
// cluster records.
func (c *Cluster) refreshJobs() {
	var mu sync.Mutex // guards byOwner
	byOwner := make(map[string]client.JobStatus)
	c.eachMember(func(m *Member) {
		if !m.reachable() {
			return
		}
		var resp struct {
			Jobs []client.JobStatus `json:"jobs"`
		}
		if err := m.api().Call(context.TODO(), http.MethodGet, "/jobs", nil, &resp); err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, st := range resp.Jobs {
			byOwner[m.ID()+"/"+st.ID] = st
		}
	})
	c.mu.Lock()
	for _, j := range c.jobSeq {
		if st, ok := byOwner[j.node+"/"+j.localID]; ok {
			c.observeLocked(j, st)
		}
	}
	c.mu.Unlock()
}

// Report fetches a job's canonical report from its owner. A dead
// owner is survivable even after completion: the job is re-dispatched
// (an instant store hit if the work finished) and the shared store
// serves the identical bytes from the new owner.
func (c *Cluster) Report(cid string) ([]byte, error) {
	j, err := c.job(cid)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 2; attempt++ {
		var data []byte
		moved, err := c.askOwner(j, http.MethodGet, "/report", &data, true)
		var se *simdclient.StatusError
		switch {
		case errors.As(err, &se):
			return nil, statusErrf(se.Code, "job %s report: %s", cid, se.Body)
		case err != nil:
			return nil, err
		case !moved:
			return data, nil
		}
	}
	return nil, statusErrf(http.StatusServiceUnavailable, "job %s: report unavailable after re-dispatch", cid)
}

// Cancel cancels a job on its current owner.
func (c *Cluster) Cancel(cid string) (JobView, error) {
	j, err := c.job(cid)
	if err != nil {
		return JobView{}, err
	}
	var st client.JobStatus
	_, err = c.askOwner(j, http.MethodDelete, "", &st, false)
	node := c.view(j, false).Node
	var se *simdclient.StatusError
	switch {
	case errors.Is(err, errOwnerGone):
		return JobView{}, statusErrf(http.StatusServiceUnavailable, "job %s: owner %s unreachable", cid, node)
	case errors.As(err, &se):
		return JobView{}, statusErrf(se.Code, "job %s: cancel refused by %s", cid, node)
	case err != nil:
		return JobView{}, statusErrf(http.StatusServiceUnavailable, "%v", err)
	}
	c.observe(j, st)
	return c.view(j, false), nil
}

// NodeStats pairs a member's membership view with its latest service
// stats (nil when the member could not be scraped).
type NodeStats struct {
	NodeStatus
	Stats *simd.Stats `json:"stats,omitempty"`
}

// Stats is the cluster-level service snapshot: the field-wise sum of
// every reachable member's stats (the embedded simd.Stats — so simtop
// and the smoke scripts read a cluster exactly like one big daemon),
// the router's own counters, and the per-node breakdown the totals
// were summed from. Totals and breakdown come from the same scrape, so
// total == Σ nodes[].stats holds within one response.
type Stats struct {
	simd.Stats
	ClusterJobs   int         `json:"cluster_jobs"`
	Submitted     int64       `json:"cluster_submitted"`
	Failovers     int64       `json:"cluster_failovers"`
	Redispatches  int64       `json:"cluster_redispatches"`
	ResidentSpecs int         `json:"resident_specs"`
	Nodes         []NodeStats `json:"nodes"`
}

// Stats scrapes every member not known to be down once and sums.
func (c *Cluster) Stats() Stats {
	var mu sync.Mutex // guards scraped
	scraped := make(map[string]*simd.Stats)
	c.eachMember(func(m *Member) {
		if m.State() == MemberDown {
			return
		}
		var st simd.Stats
		if err := m.api().Call(context.TODO(), http.MethodGet, "/stats", nil, &st); err == nil {
			mu.Lock()
			scraped[m.ID()] = &st
			mu.Unlock()
		}
	})
	members := c.Members()
	nodes := make([]NodeStats, len(members))
	for i, ns := range members {
		nodes[i] = NodeStats{NodeStatus: ns, Stats: scraped[ns.ID]}
	}
	c.mu.Lock()
	jobs := len(c.jobSeq)
	resident := len(c.resident)
	c.mu.Unlock()

	out := Stats{
		ClusterJobs: jobs, Submitted: c.submitted.Value(),
		Failovers: c.failovers.Value(), Redispatches: c.redispatches.Value(),
		ResidentSpecs: resident, Nodes: nodes,
	}
	for _, n := range nodes {
		if n.Stats != nil {
			sumStats(&out.Stats, n.Stats)
		}
	}
	out.StartedAt = c.started
	out.UptimeSeconds = time.Since(c.started).Seconds()
	return out
}

// sumStats folds one member's stats into the cluster totals, leaf by
// leaf, so a field added to simd.Stats is summed without an edit here:
// counters and levels add, a flag (store.degraded) ORs, and what cannot
// be summed — node_id, the store dir, the journal path, instants — stays
// zero. Note that with a shared store directory the summed store bytes
// count each member's view of the same files.
func sumStats(into *simd.Stats, s *simd.Stats) {
	addLeaves(reflect.ValueOf(into).Elem(), reflect.ValueOf(s).Elem())
}

func addLeaves(into, from reflect.Value) {
	switch from.Kind() {
	case reflect.Int, reflect.Int64:
		into.SetInt(into.Int() + from.Int())
	case reflect.Float64:
		into.SetFloat(into.Float() + from.Float())
	case reflect.Bool:
		into.SetBool(into.Bool() || from.Bool())
	case reflect.Pointer: // store, journal: absent on a memory-only member
		if from.IsNil() {
			return
		}
		if into.IsNil() {
			into.Set(reflect.New(from.Type().Elem()))
		}
		addLeaves(into.Elem(), from.Elem())
	case reflect.Map: // by_state
		if into.IsNil() {
			into.Set(reflect.MakeMap(from.Type()))
		}
		for it := from.MapRange(); it.Next(); {
			sum := reflect.New(from.Type().Elem()).Elem()
			if cur := into.MapIndex(it.Key()); cur.IsValid() {
				sum.Set(cur)
			}
			addLeaves(sum, it.Value())
			into.SetMapIndex(it.Key(), sum)
		}
	case reflect.Struct:
		if _, instant := from.Interface().(time.Time); instant {
			return
		}
		for i := 0; i < from.NumField(); i++ {
			addLeaves(into.Field(i), from.Field(i))
		}
	}
}

// MemberMetrics scrapes every reachable member's /metrics and returns
// the merged snapshot (counters summed across the cluster).
func (c *Cluster) MemberMetrics() *obs.Snapshot {
	var mu sync.Mutex // guards snaps
	var snaps []*obs.Snapshot
	c.eachMember(func(m *Member) {
		if !m.reachable() {
			return
		}
		if snap, err := m.api().Metrics(); err == nil {
			mu.Lock()
			snaps = append(snaps, snap)
			mu.Unlock()
		}
	})
	return obs.MergeSnapshots(snaps...)
}

// probeClient is split out for Member so the health loop can use a
// tighter timeout than proxied requests.
func (m *Member) probeClient() *simdclient.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.probe
}
