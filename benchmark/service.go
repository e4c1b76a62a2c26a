package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simd"
	"repro/internal/store"
	"repro/pkg/client"
)

// Seed streams: one per kind of generated input.
const (
	streamEngine = iota + 1
	streamHotSpec
	streamHotOrder
	streamColdSpec
)

// serviceSpec is one job-service workload: an in-process simd.Server on
// a temp store and journal behind a loopback listener, driven through
// pkg/client by a closed loop of clients (each waits for its reply
// before sending the next job, as callers of client.Run do).
type serviceSpec struct {
	name string
	// hot replays a small set of specs that set-up already executed, so
	// every timed job is a cache hit; otherwise every job is a distinct
	// tiny spec and a miss.
	hot      bool
	tiny     bool    // hot only: tiny specs instead of the default topology (smoke)
	distinct int     // hot: specs executed during set-up
	warmup   int     // cold: untimed jobs that create the store's fan-out directories
	reps     int     // fresh servers per run; each contributes one set-up sample
	jobRate  float64 // timed jobs per repetition per second of -seconds
	jobs     int     // fixed timed jobs per repetition (smoke); 0: from jobRate
	clients  int
}

func serviceSpecs(smoke bool) []serviceSpec {
	if smoke {
		return []serviceSpec{
			{name: "svc-hot", hot: true, tiny: true, distinct: 4, reps: 2, jobs: 200, clients: 2},
			{name: "svc-cold", warmup: 8, reps: 2, jobs: 24, clients: 2},
		}
	}
	return []serviceSpec{
		{name: "svc-hot", hot: true, distinct: 16, reps: 5, jobRate: 750, clients: 2},
		{name: "svc-cold", warmup: 150, reps: 6, jobRate: 45, clients: 2},
	}
}

func (w serviceSpec) timedJobs(seconds float64) int {
	if w.jobs > 0 {
		return w.jobs
	}
	return max(w.clients, int(math.Round(seconds*w.jobRate)))
}

// tinySpec is the cold workload's job: about forty events, so the
// service's own layers, not the engine, are the work.
func tinySpec(seed uint64) simd.JobSpec {
	return simd.JobSpec{Nodes: 1, WorkersPerNode: 2, LPsPerWorker: 4, EndTime: 5, Seed: seed}
}

// plan generates a repetition's inputs from the seed: the jobs run
// untimed during set-up and the timed jobs in the order they are sent.
func (w serviceSpec) plan(seed uint64, rep, timed int) (setup, jobs []simd.JobSpec) {
	if w.hot {
		for i := 0; i < w.distinct; i++ {
			s := simd.JobSpec{Seed: subSeed(seed, streamHotSpec, uint64(i))}
			if w.tiny {
				s = tinySpec(s.Seed)
			}
			setup = append(setup, s)
		}
		order := rand.New(rand.NewSource(int64(subSeed(seed, streamHotOrder, uint64(rep)))))
		for i := 0; i < timed; i++ {
			jobs = append(jobs, setup[order.Intn(len(setup))])
		}
		return setup, jobs
	}
	// Every repetition starts an empty store and sends the same distinct
	// specs, so a spec's report must come back byte-identical each time.
	for i := 0; i < w.warmup+timed; i++ {
		s := tinySpec(subSeed(seed, streamColdSpec, uint64(i)))
		if i < w.warmup {
			setup = append(setup, s)
		} else {
			jobs = append(jobs, s)
		}
	}
	return setup, jobs
}

// service is one running server with everything around it.
type service struct {
	dir       string
	store     *store.Store
	journal   *store.Journal
	server    *simd.Server
	http      *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client
	base      string
	fs        *timedFS // nil when untraced
}

// startService opens a store and journal under a fresh directory in
// tmpRoot, starts a 2-worker server on a loopback port and returns a
// client for it. With a tracer, the store's FS, the handler and the
// client's transport are wrapped so their calls leave spans.
func startService(tmpRoot string, tr *tracer, traceID string) (*service, error) {
	dir, err := os.MkdirTemp(tmpRoot, "svc-*")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var fsys store.FS = store.OSFS{}
	if tr != nil {
		s.fs = &timedFS{FS: fsys, tr: tr, trace: traceID}
		fsys = s.fs
	}
	if s.store, err = store.Open(store.Options{Dir: filepath.Join(dir, "store"), FS: fsys}); err != nil {
		return nil, err
	}
	if s.journal, err = store.OpenJournal(filepath.Join(dir, "journal.ndjson"), fsys, nil); err != nil {
		return nil, err
	}
	s.server = simd.NewServer(simd.Options{Workers: 2, Store: s.store, Journal: s.journal})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := s.server.Handler()
	if tr != nil {
		handler = traceHandler(handler, tr)
	}
	s.http = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = &traceTransport{base: rt, tr: tr}
	}
	s.client = client.New(s.base, client.WithHTTPClient(&http.Client{Transport: rt}))
	ok = true
	return s, nil
}

// close stops the listener and the server, closes the store and journal
// and removes the temp directory. It is safe on a half-started service.
func (s *service) close() {
	// Drop the client's idle connections first: one the transport dialled
	// but never used would otherwise hold Shutdown for its 5 s grace.
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.http.Shutdown(ctx); err != nil {
			s.http.Close()
		}
		cancel()
		<-s.served
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.journal != nil {
		s.journal.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// reportChecker holds the first report seen for every spec hash; any
// later report for that hash must be the same bytes.
type reportChecker struct {
	mu      sync.Mutex
	first   map[string][]byte
	stats   map[string]metrics.RunStats
	corrupt bool // tests only: remember a damaged copy so the identity check must fire
}

func newReportChecker(corrupt bool) *reportChecker {
	return &reportChecker{first: make(map[string][]byte), stats: make(map[string]metrics.RunStats), corrupt: corrupt}
}

// check validates one delivered report and returns the run statistics
// it carries.
func (c *reportChecker) check(hash string, report []byte) (metrics.RunStats, error) {
	c.mu.Lock()
	prior, seen := c.first[hash]
	stats := c.stats[hash]
	c.mu.Unlock()
	if seen {
		if !bytes.Equal(prior, report) {
			return stats, fmt.Errorf("spec %.12s: report differs from the first report for the same spec hash", hash)
		}
		return stats, nil
	}
	// First sight: validate and parse outside the lock, so the two
	// clients of the timed loop do not queue behind each other here.
	canon, err := metrics.CanonicalJSON(report)
	if err != nil {
		return metrics.RunStats{}, fmt.Errorf("spec %.12s: %w", hash, err)
	}
	if !bytes.Equal(canon, report) {
		return metrics.RunStats{}, fmt.Errorf("spec %.12s: report is not canonical JSON", hash)
	}
	var doc metrics.Report
	if err := json.Unmarshal(report, &doc); err != nil {
		return metrics.RunStats{}, fmt.Errorf("spec %.12s: %w", hash, err)
	}
	keep := append([]byte(nil), report...)
	if c.corrupt {
		keep[len(keep)/2] ^= 1
	}
	c.mu.Lock()
	c.first[hash] = keep
	c.stats[hash] = doc.Stats
	c.mu.Unlock()
	return doc.Stats, nil
}

// driveResult is what one closed-loop pass over a job list measured.
type driveResult struct {
	wall      time.Duration
	latencyMS []float64 // one per completed job: submit → terminal state → report bytes in hand
	hits      int       // jobs answered from the cache
	failures  []string
	failed    int
	total     metrics.RunStats // sums over the delivered reports
	virtNS    int64            // summed virtual run time of the delivered reports
}

// drive sends jobs through clients goroutines, each running client.Run
// and waiting for its reply before taking the next job.
func (s *service) drive(jobs []simd.JobSpec, clients int, chk *reportChecker, tr *tracer, traceID string) driveResult {
	var res driveResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local driveResult
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					break
				}
				ctx := context.Background()
				var sp int64
				if tr != nil {
					sp = tr.begin("client.run", traceID+"/job"+strconv.Itoa(i), 0)
					ctx = context.WithValue(ctx, spanKey{}, sp)
				}
				t0 := time.Now()
				st, report, err := s.client.Run(ctx, jobs[i])
				d := time.Since(t0)
				tr.end(sp)
				if err != nil {
					local.failed++
					local.failures = append(local.failures, fmt.Sprintf("job %d: %v", i, err))
					continue
				}
				local.latencyMS = append(local.latencyMS, float64(d)/1e6)
				if st.CacheHit {
					local.hits++
				}
				rs, err := chk.check(st.Hash, report)
				if err != nil {
					local.failed++
					local.failures = append(local.failures, fmt.Sprintf("job %d: %v", i, err))
				}
				addRunStats(&local.total, rs)
				local.virtNS += rs.WallNanos
			}
			mu.Lock()
			res.latencyMS = append(res.latencyMS, local.latencyMS...)
			res.hits += local.hits
			res.failed += local.failed
			res.failures = append(res.failures, local.failures...)
			addRunStats(&res.total, local.total)
			res.virtNS += local.virtNS
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// serviceRep is what one repetition (one fresh server) measured.
type serviceRep struct {
	setup      time.Duration
	drive      driveResult
	mallocs    uint64
	bytes      uint64
	executions int64 // engine runs the server started during the timed region
	fsyncs     int64 // traced only
	fsBytes    int64 // traced only
	failures   []string
	attempted  int
	failed     int
}

// runRep starts a fresh service, fills it (cache fill or warm-up jobs),
// then times the closed loop over the repetition's jobs.
func (w serviceSpec) runRep(o options, rep, timed int, chk *reportChecker, tr *tracer) (out serviceRep, err error) {
	traceID := fmt.Sprintf("%s/rep%d", w.name, rep)
	setupJobs, jobs := w.plan(o.seed, rep, timed)

	setupStart := time.Now()
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return out, err
	}
	sp := tr.begin("bench.setup", traceID, 0)
	svc, err := startService(tmp, tr, traceID)
	if err != nil {
		return out, err
	}
	defer svc.close()
	fill := svc.drive(setupJobs, w.clients, chk, nil, "")
	tr.end(sp)
	out.setup = time.Since(setupStart)
	out.attempted = len(setupJobs) + len(jobs)
	out.failed = fill.failed
	out.failures = fill.failures

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	execBefore := svc.server.Executions()
	var syncBefore, bytesBefore int64
	if svc.fs != nil {
		syncBefore, bytesBefore = svc.fs.syncs.Load(), svc.fs.written.Load()
	}
	out.drive = svc.drive(jobs, w.clients, chk, tr, traceID)
	runtime.ReadMemStats(&after)
	out.mallocs = after.Mallocs - before.Mallocs
	out.bytes = after.TotalAlloc - before.TotalAlloc
	out.executions = svc.server.Executions() - execBefore
	if svc.fs != nil {
		out.fsyncs, out.fsBytes = svc.fs.syncs.Load()-syncBefore, svc.fs.written.Load()-bytesBefore
	}
	out.failed += out.drive.failed
	out.failures = append(out.failures, out.drive.failures...)

	// The timed region of the hot workload must not run an engine; the
	// cold one must run exactly one per distinct spec sent.
	want := int64(len(jobs))
	if w.hot {
		want = 0
	}
	if out.executions != want {
		out.failed++
		out.failures = append(out.failures, fmt.Sprintf("rep %d: %d engine executions in the timed region, want %d", rep, out.executions, want))
	}
	return out, nil
}

// runService runs one service workload and returns its result.
func runService(w serviceSpec, o options) workloadResult {
	res := newResult(w.name, o)
	chk := newReportChecker(o.corrupt)
	reps, jobs := w.reps, w.timedJobs(o.seconds)
	if o.trace {
		// A traced run also makes the probes; it pairs one untraced with
		// one traced repetition, twice, at a reduced job count.
		reps, jobs = 2, w.timedJobs(o.seconds/4)
	}
	tr := o.tracer
	var plain, traced []serviceRep
	add := func(rep serviceRep, err error) (serviceRep, bool) {
		if err != nil {
			res.Attempted++
			res.Failed++
			res.fail(err.Error())
			return rep, false
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		for _, f := range rep.failures {
			res.fail(f)
		}
		return rep, true
	}
	for i := 0; i < reps; i++ {
		if i >= minReps && o.overBudget() {
			res.Note = fmt.Sprintf("stopped after %d of %d repetitions: over the time budget", i, reps)
			break
		}
		if rep, ok := add(w.runRep(o, i, jobs, chk, nil)); ok {
			plain = append(plain, rep)
		}
		if tr != nil {
			if rep, ok := add(w.runRep(o, i, jobs, chk, tr)); ok {
				traced = append(traced, rep)
			}
		}
	}
	if !o.trace {
		res.EndToEnd = serviceEndToEnd(plain)
		return res
	}
	// The tracer is shared by every workload of the invocation: keep
	// this workload's spans.
	var spans []span
	for _, s := range tr.snapshot() {
		if strings.HasPrefix(s.Trace, w.name+"/") {
			spans = append(spans, s)
		}
	}
	res.PerLayer = servicePerLayer(plain, traced, spans)
	return res
}

// serviceEndToEnd folds repetitions into the end-to-end metrics. An
// "event" here is a committed event of a simulation whose report was
// delivered; virtual rate and allocations are totals over the fixed job
// list, host rates are medians over repetitions.
func serviceEndToEnd(reps []serviceRep) map[string]value {
	var evRate, jobRate, setup []float64
	var committed, virtS, mallocs, bytes float64
	for _, r := range reps {
		d := r.drive
		evRate = append(evRate, float64(d.total.Committed)/d.wall.Seconds())
		jobRate = append(jobRate, float64(len(d.latencyMS))/d.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		committed += float64(d.total.Committed)
		virtS += float64(d.virtNS) / 1e9
		mallocs += float64(r.mallocs)
		bytes += float64(r.bytes)
	}
	return map[string]value{
		"events_per_s":      medianValue(evRate, "1/s"),
		"virt_events_per_s": exactValue(committed/virtS, "1/s", len(reps)),
		"allocs_per_event":  exactValue(mallocs/committed, "count", len(reps)),
		"bytes_per_event":   exactValue(bytes/committed, "B", len(reps)),
		"jobs_per_s":        medianValue(jobRate, "1/s"),
		"setup_s":           medianValue(setup, "s"),
	}
}

// servicePerLayer folds a traced run into the per-layer metrics the
// service workloads enter.
func servicePerLayer(plain, traced []serviceRep, spans []span) map[string]value {
	out := make(map[string]value)
	// Counts and latencies come from the untraced repetitions, everything
	// the seams observe from the traced ones.
	var total metrics.RunStats
	var lat []float64
	for _, r := range plain {
		addRunStats(&total, r.drive.total)
		lat = append(lat, r.drive.latencyMS...)
	}
	countMetrics(out, total, len(plain))

	var jobs, hits, execs, fsyncs, fsBytes float64
	for _, r := range traced {
		jobs += float64(len(r.drive.latencyMS))
		hits += float64(r.drive.hits)
		execs += float64(r.executions)
		fsyncs += float64(r.fsyncs)
		fsBytes += float64(r.fsBytes)
	}
	out["client.run_ms_p50"] = medianValue(lat, "ms")
	if len(lat) > 0 {
		out["client.run_ms_p99"] = exactValue(percentile(lat, 0.99), "ms", len(lat))
	}
	if jobs > 0 {
		out["simd.executions"] = exactValue(execs, "count", len(traced))
		out["simd.cache_hit_frac"] = exactValue(hits/jobs, "frac", int(jobs))
		out["store.fsyncs_per_job"] = exactValue(fsyncs/jobs, "count", int(jobs))
		out["store.bytes_per_job"] = exactValue(fsBytes/jobs, "B", int(jobs))
	}

	// Walk the span tree: handler spans hang under transport spans,
	// which hang under the client.Run span of their job.
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	inHandlers := make(map[int64]int64) // client.run span → handler time it caused
	routes := map[string][]float64{}
	var calls float64
	var fsyncUS []float64
	for _, s := range spans {
		switch {
		case s.Name == "store.fsync":
			fsyncUS = append(fsyncUS, float64(s.dur())/1e3)
		case strings.HasPrefix(s.Name, "http.") && s.Parent != 0:
			calls++
		case strings.HasPrefix(s.Name, "simd.http_"):
			// Only the timed jobs: their transport span has a client.run
			// parent, a set-up job's has none.
			if rt, ok := byID[s.Parent]; ok && rt.Parent != 0 {
				routes[s.Name] = append(routes[s.Name], float64(s.dur())/1e3)
				inHandlers[rt.Parent] += s.dur()
			}
		}
	}
	var overheadUS []float64
	for _, s := range spans {
		if s.Name == "client.run" {
			overheadUS = append(overheadUS, float64(s.dur()-inHandlers[s.ID])/1e3)
		}
	}
	if jobs > 0 {
		out["client.http_calls_per_job"] = exactValue(calls/jobs, "count", int(jobs))
	}
	out["client.overhead_us"] = medianValue(overheadUS, "us")
	out["simd.http_submit_us"] = medianValue(routes["simd.http_submit"], "us")
	out["simd.http_events_us"] = medianValue(routes["simd.http_events"], "us")
	out["simd.http_report_us"] = medianValue(routes["simd.http_report"], "us")
	out["store.fsync_us_p50"] = medianValue(fsyncUS, "us")

	var overhead []float64
	for i := range traced {
		if i < len(plain) && len(plain[i].drive.latencyMS) > 0 && len(traced[i].drive.latencyMS) > 0 {
			overhead = append(overhead, traced[i].drive.wall.Seconds()/plain[i].drive.wall.Seconds()-1)
		}
	}
	out["bench.trace_overhead_frac"] = medianValue(overhead, "frac")
	return out
}

// spanKey carries the caller's span id in a request context.
type spanKey struct{}

const spanHeader = "X-Bench-Span"

// traceTransport is the http.RoundTripper seam: one span per HTTP
// exchange, from the request leaving to the response body being closed,
// named after the route.
type traceTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int64)
	id := t.tr.begin("http."+route(req.Method, req.URL.Path), "", parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.end(id) }}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// traceHandler is the http.Handler seam: one span per request served,
// keyed by route, under the transport span named in the request header.
func traceHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := tr.begin("simd.http_"+route(r.Method, r.URL.Path), "", parent)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// route names the service routes client.Run uses.
func route(method, urlPath string) string {
	switch {
	case method == http.MethodPost && urlPath == "/jobs":
		return "submit"
	case method == http.MethodGet && path.Base(urlPath) == "events":
		return "events"
	case method == http.MethodGet && path.Base(urlPath) == "report":
		return "report"
	case method == http.MethodGet && path.Dir(urlPath) == "/jobs":
		return "status"
	}
	return "other"
}

// timedFS is the store.FS seam: it times every File.Sync and counts the
// bytes written through it.
type timedFS struct {
	store.FS
	tr      *tracer
	trace   string
	syncs   atomic.Int64
	written atomic.Int64
}

func (f *timedFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

// Lock and Unlock hand the real file to the real FS.
func (f *timedFS) Lock(file store.File) error   { return f.FS.Lock(unwrapFile(file)) }
func (f *timedFS) Unlock(file store.File) error { return f.FS.Unlock(unwrapFile(file)) }

func unwrapFile(file store.File) store.File {
	if t, ok := file.(*timedFile); ok {
		return t.File
	}
	return file
}

type timedFile struct {
	store.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	id := f.fs.tr.begin("store.fsync", f.fs.trace, 0)
	err := f.File.Sync()
	f.fs.tr.end(id)
	f.fs.syncs.Add(1)
	return err
}
