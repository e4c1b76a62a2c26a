package simdcluster

import (
	"net/http"
	"sync"
	"time"

	"repro/pkg/client"
)

// MemberState is a member's position in the health-gated lifecycle:
//
//	starting ──(healthz ok)──▶ up ◀──(healthz ok)── down
//	                            └──(N consecutive failures)──▶ down
//
// A member is registered as starting and serves no traffic until its
// first passing health check — the cluster equivalent of "the node is
// not started until it answers". Draining is orthogonal: a draining
// member keeps its state (it still answers reports) but receives no
// new dispatches, and its unfinished jobs move elsewhere.
type MemberState string

const (
	MemberStarting MemberState = "starting"
	MemberUp       MemberState = "up"
	MemberDown     MemberState = "down"
)

// Member is one simd daemon under the router.
type Member struct {
	id string

	mu       sync.Mutex
	base     string
	pid      int
	state    MemberState
	draining bool
	// failures counts consecutive failed health probes; it resets to
	// zero on any success.
	failures int
	lastErr  string
	lastSeen time.Time
	client   *client.Client
	// probe is a second client with the (tighter) health-probe timeout,
	// so a hung member cannot stall the health loop for the full proxy
	// timeout.
	probe *client.Client
}

// ID returns the member's stable identity.
func (m *Member) ID() string { return m.id }

// State returns the member's lifecycle state.
func (m *Member) State() MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// eligible reports whether the member may receive new dispatches.
func (m *Member) eligible() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == MemberUp && !m.draining
}

// reachable reports whether proxied reads (status, report) may be sent.
// A draining member is still reachable — only dispatch is gated.
func (m *Member) reachable() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == MemberUp
}

// api returns the member's HTTP client and base URL under the lock —
// both can change when a supervisor respawns the member on a new port.
func (m *Member) api() *client.Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.client
}

// rebase points the member at a new address/pid (a supervisor respawn)
// and returns it to starting so the health gate re-runs before traffic.
func (m *Member) rebase(base string, pid int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = base
	m.pid = pid
	m.client = client.New(base, client.WithHTTPClient(&http.Client{Timeout: proxyTimeout}))
	m.probe = client.New(base, client.WithHTTPClient(&http.Client{Timeout: probeTimeout}))
	m.state = MemberStarting
	m.failures = 0
	m.lastErr = ""
}

// NodeStatus is the wire form of a member for /nodes and /stats.
type NodeStatus struct {
	ID       string      `json:"node_id"`
	Addr     string      `json:"addr"`
	State    MemberState `json:"state"`
	Draining bool        `json:"draining,omitempty"`
	// PID is the supervised process id (0 when the member was registered
	// by URL rather than spawned).
	PID      int       `json:"pid,omitempty"`
	Failures int       `json:"failures,omitempty"`
	LastErr  string    `json:"last_error,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// snapshot captures the member for the wire.
func (m *Member) snapshot() NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return NodeStatus{
		ID: m.id, Addr: m.base, State: m.state, Draining: m.draining,
		PID: m.pid, Failures: m.failures, LastErr: m.lastErr, LastSeen: m.lastSeen,
	}
}
