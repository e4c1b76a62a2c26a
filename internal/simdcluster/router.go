package simdcluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/simdclient"
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

// writeErr renders an error, honoring StatusError codes and headers.
func writeErr(w http.ResponseWriter, err error) {
	var se *StatusError
	if !errors.As(err, &se) {
		se = &StatusError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	if se.RetryAfter != "" {
		w.Header().Set("Retry-After", se.RetryAfter)
	}
	simd.WriteError(w, se.Code, "%s", se.Msg)
}

func (c *Cluster) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, simd.MaxSpecBytes))
	if err != nil {
		writeErr(w, statusErrf(http.StatusBadRequest, "reading spec: %v", err))
		return
	}
	res, err := c.Submit(body)
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
	simdclient.Health
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
		Health:  simdclient.Health{Status: "ok", NodeID: fmt.Sprintf("cluster(%d)", len(members))},
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
