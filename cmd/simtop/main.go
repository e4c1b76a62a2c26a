// Command simtop is a terminal monitor for a running simd daemon: it
// polls /metrics, /stats and /jobs and renders a refreshing one-screen
// view — queue pressure, worker utilization, cache effectiveness, live
// engine rates (committed events/sec, rollbacks/sec, GVT rounds/sec)
// and per-job GVT progress — the way top does for processes.
//
// Examples:
//
//	simtop                                  # watch http://127.0.0.1:8080 at 1s
//	simtop -addr http://10.0.0.7:8080 -interval 2s
//	simtop -once                            # render a single frame and exit
//	                                        # (scriptable: used by the obs smoke test)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simdclient"
	"repro/internal/simdcluster"
	"repro/pkg/client"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "simd base URL")
		interval = flag.Duration("interval", time.Second, "poll/refresh interval")
		once     = flag.Bool("once", false, "render one frame without clearing the screen and exit")
		rows     = flag.Int("jobs", 12, "job rows to show (most recent first)")
	)
	flag.Parse()
	if err := run(*addr, *interval, *once, *rows); err != nil {
		fmt.Fprintln(os.Stderr, "simtop:", err)
		os.Exit(1)
	}
}

// frame is one poll of the daemon (or cluster router).
type frame struct {
	at time.Time
	// stats is read as the router's document — a daemon's plus per-node
	// attribution. Against a single daemon the cluster fields decode empty
	// and the cluster line is simply not rendered.
	stats   simdcluster.Stats
	jobs    []client.JobStatus
	metrics *obs.Snapshot
	// health is /healthz's status: "ok", "degraded" (persistent store
	// bypassed, results memory-only), or "" when the probe failed.
	health string
	// healthErr is the health probe's failure, when it had one. A
	// *simdclient.StatusError here means the daemon is up but its
	// health endpoint is answering 5xx — a different banner from
	// "degraded", and from nothing listening at all.
	healthErr error
}

// poll fetches one frame from the daemon.
func poll(c *simdclient.Client) (*frame, error) {
	f := &frame{at: time.Now()}
	if err := c.Call(context.Background(), http.MethodGet, "/stats", nil, &f.stats); err != nil {
		return nil, err
	}
	if hz, err := c.Health(); err == nil {
		f.health = hz.Status // best-effort: an old daemon without the field still renders
	} else {
		f.healthErr = err
	}
	var list struct {
		Jobs []client.JobStatus `json:"jobs"`
	}
	if err := c.Call(context.Background(), http.MethodGet, "/jobs", nil, &list); err != nil {
		return nil, err
	}
	f.jobs = list.Jobs
	var err error
	f.metrics, err = c.Metrics()
	return f, err
}

// backoffCap bounds the retry delay between failed polls.
const backoffCap = 5 * time.Second

// pollRetry polls with capped exponential backoff, so a daemon that is
// still starting — or mid-restart — doesn't kill the monitor on the
// first refused connection.
func pollRetry(c *simdclient.Client, attempts int) (*frame, error) {
	var f *frame
	err := simdclient.Retry(attempts, 250*time.Millisecond, backoffCap,
		func() error {
			var e error
			f, e = poll(c)
			return e
		},
		func(attempt int, err error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "simtop: poll failed (attempt %d/%d): %s; retrying in %s\n",
				attempt, attempts, describeErr(err), delay)
		})
	return f, err
}

// describeErr turns a poll failure into an operator-facing diagnosis:
// "nothing is listening" and "the daemon answered 500" demand different
// reactions, and the typed simdclient errors let us tell them apart.
func describeErr(err error) string {
	var se *simdclient.StatusError
	switch {
	case errors.As(err, &se):
		return fmt.Sprintf("daemon answered HTTP %d on %s", se.Code, se.Path)
	case simdclient.IsUnreachable(err):
		return fmt.Sprintf("daemon unreachable (down or restarting?): %v", err)
	}
	return err.Error()
}

func run(base string, interval time.Duration, once bool, rows int) error {
	api := simdclient.New(base)

	cur, err := pollRetry(api, 6)
	if err != nil {
		return err
	}
	if once {
		fmt.Print(render(base, nil, cur, rows))
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fmt.Print("\x1b[2J") // clear once; frames then repaint from home
	var prev *frame
	delay, failures := interval, 0
	for {
		fmt.Print("\x1b[H" + render(base, prev, cur, rows) + "\x1b[0J")
		select {
		case <-sig:
			fmt.Println()
			return nil
		case <-time.After(delay):
		}
		next, err := poll(api)
		if err != nil {
			// Keep the last frame on screen, report the blip, and back off
			// — the daemon may be restarting; hammering it helps nobody.
			failures++
			delay = interval << uint(failures-1)
			if delay > backoffCap || delay < interval {
				delay = backoffCap
			}
			fmt.Printf("\x1b[Hsimtop: poll failed: %s (retry %d in %s)\x1b[0K\n", describeErr(err), failures, delay)
			continue
		}
		prev, cur = cur, next
		delay, failures = interval, 0
	}
}

// rate computes a per-second delta of a counter between frames.
func rate(prev, cur *frame, name string) float64 {
	if prev == nil {
		return 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	a, _ := prev.metrics.Get(name)
	b, _ := cur.metrics.Get(name)
	if b < a {
		return 0 // daemon restarted; counters reset
	}
	return (b - a) / dt
}

// render builds one full frame as a string.
func render(base string, prev, cur *frame, rows int) string {
	var b strings.Builder
	st := cur.stats

	buildLabel := "unknown"
	for _, s := range cur.metrics.Samples {
		if s.Name == "simd_build_info" {
			buildLabel = s.Labels["revision"] + " (" + s.Labels["go_version"] + ")"
			break
		}
	}
	fmt.Fprintf(&b, "simtop — %s   up %s   build %s\x1b[0K\n",
		base, fmtDur(time.Duration(st.UptimeSeconds*float64(time.Second))), buildLabel)
	var se *simdclient.StatusError
	switch {
	case cur.health == "degraded":
		// Reverse video: the one condition an operator must not miss.
		b.WriteString("\x1b[7m DEGRADED — persistent store bypassed; results are memory-only \x1b[0m\x1b[0K\n")
	case errors.As(cur.healthErr, &se):
		// /stats answered but /healthz didn't: the daemon is up and
		// actively failing its own health check — worse than degraded.
		fmt.Fprintf(&b, "\x1b[7m UNHEALTHY — /healthz answered HTTP %d \x1b[0m\x1b[0K\n", se.Code)
	case cur.healthErr != nil && simdclient.IsUnreachable(cur.healthErr):
		b.WriteString("\x1b[7m UNHEALTHY — /healthz probe got no answer \x1b[0m\x1b[0K\n")
	}
	if len(st.Nodes) > 0 {
		// Watching a cluster router: show member attribution.
		up := 0
		parts := make([]string, 0, len(st.Nodes))
		for _, n := range st.Nodes {
			if n.State == simdcluster.MemberUp {
				up++
			}
			parts = append(parts, fmt.Sprintf("%s:%s", n.ID, n.State))
		}
		fmt.Fprintf(&b, "cluster  %d/%d nodes up   %s\x1b[0K\n", up, len(st.Nodes), strings.Join(parts, "  "))
	}
	b.WriteString("\x1b[0K\n")

	by := st.ByState
	fmt.Fprintf(&b, "jobs     queued %-4d running %-4d done %-5d failed %-4d cancelled %-4d\x1b[0K\n",
		by[client.StateQueued], by[client.StateRunning], by[client.StateDone], by[client.StateFailed], by[client.StateCancelled])
	fmt.Fprintf(&b, "queue    %s %d/%d   workers %d/%d busy   rejected(429) %d\x1b[0K\n",
		bar(st.QueueLen, st.QueueCap, 20), st.QueueLen, st.QueueCap,
		st.WorkersBusy, st.Workers, st.Rejected)

	c := st.Cache
	ratio := 0.0
	if c.Hits+c.Misses > 0 {
		ratio = 100 * float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	fmt.Fprintf(&b, "cache    hits %d  misses %d  ratio %.1f%%   %s / %s   evictions %d   dedup %d\x1b[0K\n",
		c.Hits, c.Misses, ratio, fmtBytes(c.Bytes), fmtBytes(c.Budget), c.Evictions, st.DedupHits)

	if sc := st.Store; sc != nil {
		mode := "ok"
		if sc.Degraded {
			mode = "DEGRADED"
		}
		fmt.Fprintf(&b, "store    %s   hits %d  misses %d  puts %d   %s / %s   quarantined %d  evictions %d\x1b[0K\n",
			mode, sc.Hits, sc.Misses, sc.Puts, fmtBytes(sc.Bytes), fmtBytes(sc.MaxBytes),
			sc.Quarantined, sc.Evictions)
	}

	fmt.Fprintf(&b, "engine   %s rounds/s   %s committed ev/s   %s processed ev/s   %s rollbacks/s\x1b[0K\n\n",
		fmtRate(rate(prev, cur, "simd_engine_gvt_rounds_total")),
		fmtRate(rate(prev, cur, "simd_engine_events_committed_total")),
		fmtRate(rate(prev, cur, "simd_engine_events_processed_total")),
		fmtRate(rate(prev, cur, "simd_engine_rollbacks_total")))

	fmt.Fprintf(&b, "%-8s %-10s %8s %12s %8s %10s\x1b[0K\n",
		"JOB", "STATE", "ROUNDS", "GVT", "EFF", "ELAPSED")
	jobs := append([]client.JobStatus(nil), cur.jobs...)
	// Most recent first; running jobs are naturally near the top since
	// IDs are sequential.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID > jobs[j].ID })
	if len(jobs) > rows {
		jobs = jobs[:rows]
	}
	for _, j := range jobs {
		fmt.Fprintf(&b, "%-8s %-10s %8d %12.2f %8.2f %10s\x1b[0K\n",
			j.ID, string(j.State), j.Rounds, j.GVT, j.Efficiency, elapsed(j, cur.at))
	}
	if len(jobs) == 0 {
		b.WriteString("(no jobs yet — POST a JobSpec to /jobs)\x1b[0K\n")
	}
	return b.String()
}

// elapsed is the job's wall-clock age in its current phase: run time for
// started jobs (frozen at finish), queue age otherwise.
func elapsed(j client.JobStatus, now time.Time) string {
	switch {
	case j.StartedAt != nil && j.FinishedAt != nil:
		return fmtDur(j.FinishedAt.Sub(*j.StartedAt))
	case j.StartedAt != nil:
		return fmtDur(now.Sub(*j.StartedAt))
	case j.FinishedAt != nil: // born done (cache hit) or cancelled while queued
		return fmtDur(0)
	}
	return fmtDur(now.Sub(j.SubmittedAt))
}

// bar renders a [####....] utilization bar.
func bar(n, max, width int) string {
	if max <= 0 {
		max = 1
	}
	fill := n * width / max
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}

func fmtDur(d time.Duration) string {
	d = d.Round(time.Second)
	if d >= time.Hour {
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
	if d >= time.Minute {
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	}
	return fmt.Sprintf("%ds", int(d.Seconds()))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.1f", v)
}
