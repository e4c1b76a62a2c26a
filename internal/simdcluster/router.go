package simdcluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/pkg/client"
)

// Handler returns the router's HTTP API — deliberately shaped like one
// simd daemon, so clients (and simtop) point at a cluster unchanged, plus
// the /nodes verbs. DESIGN.md ("Job API contract") owns the route table,
// including the daemon routes the router does not serve yet.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /jobs/{id}/report", c.handleReport)
	mux.HandleFunc("DELETE /jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /nodes", c.handleNodes)
	mux.HandleFunc("POST /nodes/{id}/drain", c.handleDrain(true))
	mux.HandleFunc("DELETE /nodes/{id}/drain", c.handleDrain(false))
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// writeErr renders an error: an *APIError as its status, message and
// Retry-After, anything else as a 500.
func writeErr(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		ae = refuse(http.StatusInternalServerError, "%s", err)
	}
	if ra := ae.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	simd.WriteError(w, ae.Status, "%s", ae.Message)
}

func (c *Cluster) handleSubmit(w http.ResponseWriter, r *http.Request) {
	res, err := c.Submit(r.Body)
	if err != nil {
		writeErr(w, err)
		return
	}
	code := http.StatusAccepted
	if res.CacheHitNow || res.DedupedNow {
		code = http.StatusOK
	}
	simd.WriteJSON(w, code, res)
}

func (c *Cluster) handleJobs(w http.ResponseWriter, r *http.Request) {
	simd.WriteJSON(w, http.StatusOK, map[string]any{"jobs": c.Jobs()})
}

// answer writes v as a 200, or err as the refusal it is.
func answer(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	simd.WriteJSON(w, http.StatusOK, v)
}

func (c *Cluster) handleJob(w http.ResponseWriter, r *http.Request) {
	v, err := c.Job(r.PathValue("id"))
	answer(w, v, err)
}

func (c *Cluster) handleReport(w http.ResponseWriter, r *http.Request) {
	data, err := c.Report(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (c *Cluster) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := c.Cancel(r.PathValue("id"))
	answer(w, v, err)
}

func (c *Cluster) handleNodes(w http.ResponseWriter, r *http.Request) {
	simd.WriteJSON(w, http.StatusOK, map[string]any{"nodes": c.Members()})
}

func (c *Cluster) handleDrain(on bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := c.Drain(id, on); err != nil {
			writeErr(w, err)
			return
		}
		m, _ := c.Member(id)
		simd.WriteJSON(w, http.StatusOK, m.snapshot())
	}
}

func (c *Cluster) handleStats(w http.ResponseWriter, r *http.Request) {
	simd.WriteJSON(w, http.StatusOK, c.Stats())
}

// handleMetrics serves the router's own registry followed by the
// merged member snapshots — one scrape shows the whole cluster.
// Families don't collide: the router's are simdcluster_*, members'
// are simd_*.
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WritePrometheus(w)
	c.MemberMetrics().WriteText(w)
}

// healthzResponse is the router's liveness document.
type healthzResponse struct {
	client.Health
	// NodesUp / NodesTotal summarize gated membership.
	NodesUp       int       `json:"nodes_up"`
	NodesTotal    int       `json:"nodes_total"`
	Build         obs.Build `json:"build"`
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := c.Members()
	up := 0
	for _, m := range members {
		if m.State == MemberUp {
			up++
		}
	}
	resp := healthzResponse{
		Health:  client.Health{Status: "ok", NodeID: fmt.Sprintf("cluster(%d)", len(members))},
		NodesUp: up, NodesTotal: len(members),
		Build: obs.ReadBuild(), StartedAt: c.started, UptimeSeconds: time.Since(c.started).Seconds(),
	}
	if up == 0 {
		// Still answering — the router is alive — but with nobody to
		// route to the cluster is degraded, and probes should say so.
		resp.Status = "degraded"
	}
	simd.WriteJSON(w, http.StatusOK, resp)
}
