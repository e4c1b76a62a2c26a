package simd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/pkg/client"
)

func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, client.Submission) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out client.Submission
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, out
}

func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// waitDone blocks on the job's event stream, which ends when the job
// settles, and returns the terminal status.
func waitDone(t *testing.T, ts *httptest.Server, id string) client.JobStatus {
	t.Helper()
	if code, body, _ := getBody(t, ts.URL+"/jobs/"+id+"/events"); code != http.StatusOK {
		t.Fatalf("GET /jobs/%s/events: %d %s", id, code, body)
	}
	code, body, _ := getBody(t, ts.URL+"/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d %s", id, code, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !client.Terminal(st.State) {
		t.Fatalf("job %s is %s after its event stream ended", id, st.State)
	}
	return st
}

// waitRunningID is waitRunning for a job the test knows by its wire id.
func waitRunningID(t *testing.T, s *Server, id string) {
	t.Helper()
	j, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
}

const fastBody = `{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5}`

// TestHTTPSubmitReportCacheHit is the wire-level acceptance flow:
// submit, fetch the report, submit again, observe a byte-identical
// cached response with no second execution.
func TestHTTPSubmitReportCacheHit(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 2})

	resp, sub := postJob(t, ts, fastBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	if sub.CacheHitNow || sub.DedupedNow || sub.State == "" {
		t.Fatalf("first submit response %+v", sub)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job settled as %s (%s)", st.State, st.Error)
	}
	if st.Rounds == 0 || st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("status incomplete: %+v", st)
	}

	code, report1, hdr := getBody(t, ts.URL+"/jobs/"+sub.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, report1)
	}
	if hdr.Get("X-Simd-Job") != sub.ID || hdr.Get("X-Simd-Hash") != sub.Hash {
		t.Fatalf("report headers %v", hdr)
	}
	if !json.Valid(report1) {
		t.Fatal("report is not valid JSON")
	}

	resp2, sub2 := postJob(t, ts, fastBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %d, want 200 (cache hit)", resp2.StatusCode)
	}
	if !sub2.CacheHitNow || sub2.State != StateDone {
		t.Fatalf("second submit response %+v", sub2)
	}
	if sub2.Hash != sub.Hash {
		t.Fatal("same body hashed differently")
	}
	code, report2, _ := getBody(t, ts.URL+"/jobs/"+sub2.ID+"/report")
	if code != http.StatusOK || !bytes.Equal(report1, report2) {
		t.Fatalf("cached report differs (code %d)", code)
	}
	if got := s.Executions(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestHTTPEventsStream: the NDJSON stream replays every progress line
// and terminates with an end record.
func TestHTTPEventsStream(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	resp, sub := postJob(t, ts, fastBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	stream, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var progress int
	var lastRound int64
	sawEnd := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var line struct {
			Type  string  `json:"type"`
			Round int64   `json:"round"`
			GVT   float64 `json:"gvt"`
			State State   `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "progress":
			if line.Round <= lastRound {
				t.Fatalf("round %d after %d", line.Round, lastRound)
			}
			lastRound = line.Round
			progress++
		case "end":
			sawEnd = true
			if line.State != StateDone {
				t.Fatalf("stream ended with state %s", line.State)
			}
		default:
			t.Fatalf("unknown line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd || progress == 0 {
		t.Fatalf("stream: %d progress lines, end=%v", progress, sawEnd)
	}
	st := waitDone(t, ts, sub.ID)
	if progress != st.Rounds {
		t.Fatalf("streamed %d of %d rounds", progress, st.Rounds)
	}
}

// TestHTTPCancel: DELETE cancels a running job; a second DELETE is 409.
func TestHTTPCancel(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1})
	slow := `{"nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":50000}`
	resp, sub := postJob(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// Wait until mid-run so the cancel exercises the kernel unwind.
	waitRunningID(t, s, sub.ID)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", del.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	// Report on a cancelled job is a conflict, as is cancelling again.
	code, _, _ := getBody(t, ts.URL+"/jobs/"+sub.ID+"/report")
	if code != http.StatusConflict {
		t.Fatalf("report of cancelled job: %d, want 409", code)
	}
	del2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %d, want 409", del2.StatusCode)
	}
}

// TestHTTPRejections: bad specs 400, unknown jobs 404, full queue 429.
func TestHTTPRejections(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1, QueueDepth: 1})

	for name, body := range map[string]string{
		"invalid-json":  `{"model":`,
		"unknown-field": `{"model":"phold","typo_field":3}`,
		"bad-model":     `{"model":"chess"}`,
		"bad-value":     `{"end_time":-4}`,
		// Admission caps: valid specs the service refuses to run.
		"end-cap":  `{"end_time":1e9}`,
		"node-cap": `{"nodes":1000}`,
		"lp-cap":   `{"nodes":64,"workers_per_node":64,"lps_per_worker":4096}`,
		// Overflowing products, which must not slip under the LP cap as 0.
		"lp-wrap":       `{"nodes":2,"workers_per_node":1099511627776,"lps_per_worker":8388608}`,
		"lp-wrap-64":    `{"nodes":64,"workers_per_node":4294967296,"lps_per_worker":4294967296}`,
		"watchdog-wrap": `{"faults":"drop","watchdog_us":9300000000000000}`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, resp.StatusCode)
		}
	}

	if code, _, _ := getBody(t, ts.URL+"/jobs/j424242"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/jobs/j424242/report"); code != http.StatusNotFound {
		t.Errorf("unknown report: %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/jobs/j424242/events"); code != http.StatusNotFound {
		t.Errorf("unknown events: %d, want 404", code)
	}

	// Occupy the worker, fill the single queue slot, then overflow.
	slow := `{"nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":50000}`
	resp, sub := postJob(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	waitRunningID(t, s, sub.ID)
	if resp, _ := postJob(t, ts, fastBody); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", resp.StatusCode)
	}
	resp429, _ := postJob(t, ts, `{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":77}`)
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp429.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	waitDone(t, ts, sub.ID)
}

// TestHTTPListStatsHealth covers the read-only endpoints.
func TestHTTPListStatsHealth(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})
	for i := 0; i < 2; i++ {
		resp, sub := postJob(t, ts, fmt.Sprintf(`{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":%d}`, 300+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		waitDone(t, ts, sub.ID)
	}

	code, body, _ := getBody(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []client.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) != 2 {
		t.Fatalf("list %s: %v", body, err)
	}

	code, body, _ = getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 2 || st.Executions != 2 || st.ByState[string(StateDone)] != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Cache.Entries != 2 {
		t.Fatalf("cache stats %+v", st.Cache)
	}

	code, body, _ = getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// TestHTTPRetryAfter: a 429 carries a Retry-After hint derived from the
// queue depth and the mean run duration, so routers and clients can
// back off intelligently instead of hammering a saturated daemon.
func TestHTTPRetryAfter(t *testing.T) {
	s, ts := newTestService(t, Options{Workers: 1, QueueDepth: 1})

	// Occupy the single worker with an effectively-endless run, then
	// fill the single queue slot.
	slow := `{"nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":50000,"seed":91}`
	resp, blocker := postJob(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	waitRunningID(t, s, blocker.ID)
	if resp, _ := postJob(t, ts, `{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":92}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue filler: %d", resp.StatusCode)
	}

	resp429, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"nodes":2,"workers_per_node":2,"lps_per_worker":4,"end_time":5,"seed":93}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp429.Body.Close()
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp429.StatusCode)
	}
	ra := resp429.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not integer seconds: %v", ra, err)
	}
	if secs < 1 || secs > 120 {
		t.Fatalf("Retry-After %d outside the [1s, 2m] clamp", secs)
	}
	// The estimate itself must agree with the header's order of magnitude.
	if est := s.RetryAfter(); est < time.Second || est > 2*time.Minute {
		t.Fatalf("RetryAfter() = %s outside the clamp", est)
	}

	// Unblock the worker so teardown doesn't wait out virtual year 50000.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+blocker.ID, nil)
	if del, err := http.DefaultClient.Do(req); err == nil {
		del.Body.Close()
	}
	waitDone(t, ts, blocker.ID)
}

// TestHTTPNodeIdentity: a configured NodeID is echoed by /healthz and
// /stats so cluster-aggregated stats can attribute counts to members;
// without one the fields are omitted.
func TestHTTPNodeIdentity(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1, NodeID: "n7"})

	code, body, _ := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var hz struct {
		NodeID string `json:"node_id"`
	}
	if err := json.Unmarshal(body, &hz); err != nil || hz.NodeID != "n7" {
		t.Fatalf("healthz node_id %q (err %v), want n7", hz.NodeID, err)
	}

	code, body, _ = getBody(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil || st.NodeID != "n7" {
		t.Fatalf("stats node_id %q (err %v), want n7", st.NodeID, err)
	}

	_, anon := newTestService(t, Options{Workers: 1})
	_, body, _ = getBody(t, anon.URL+"/stats")
	if strings.Contains(string(body), "node_id") {
		t.Fatalf("anonymous daemon leaked a node_id: %s", body)
	}
}
