// Command simd serves the simulation engine over HTTP: clients POST a
// JobSpec to /jobs, stream per-GVT-round progress from
// /jobs/{id}/events, and fetch the canonical run report from
// /jobs/{id}/report. Because the engine is deterministic, results are
// content-addressed by spec hash: re-submitting an identical spec is a
// cache hit and identical in-flight submissions execute once.
//
// Durability: -store-dir adds a disk-backed content-addressed result
// store under the in-memory cache plus a warm-restart journal, so
// results survive restarts (even kill -9) and interrupted jobs
// re-enqueue on startup. Multiple daemons may share one store
// directory. When the disk misbehaves the service degrades to
// memory-only — /healthz reports "degraded" — and recovers by probing.
// -job-deadline bounds each job's wall-clock run time.
//
// Observability: GET /metrics serves Prometheus text exposition (live
// service and engine signals, updated every GVT round), GET
// /jobs/{id}/flight returns a job's flight recorder (the bounded tail
// of its recent rounds, for post-mortems), logs are structured
// (-log-level, -log-format), and -debug-addr starts a separate
// listener with net/http/pprof and a second /metrics mount. `simtop`
// renders the daemon live in a terminal.
//
// Examples:
//
//	simd                                   # listen on :8080
//	simd -addr 127.0.0.1:9090 -workers 4   # four concurrent simulations
//	simd -cachesize 256 -queue 128         # 256 MiB cache, 128 queued jobs
//	simd -store-dir /var/lib/simd          # crash-safe persistent results
//	simd -job-deadline 5m                  # bound each job's wall clock
//	simd -log-level debug -log-format text # chatty human-readable logs
//	simd -debug-addr 127.0.0.1:6060        # pprof + metrics debug listener
//
// See README.md ("Running as a service", "Observability" and
// "Durability & degradation") for the curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/store"
)

// config carries the parsed flags into run.
type config struct {
	addr, debugAddr string
	workers, queue  int
	cacheMiB        int64
	flightRounds    int
	flightRetain    int
	storeDir        string
	storeMiB        int64
	journalPath     string
	jobDeadline     time.Duration
	nodeID          string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "simulations executing concurrently")
	flag.IntVar(&cfg.queue, "queue", 64, "bounded queue depth beyond the running jobs; past it submissions get 429")
	flag.Int64Var(&cfg.cacheMiB, "cachesize", 64, "result cache budget in MiB (0: disable caching)")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "persistent content-addressed result store directory (empty: memory-only)")
	flag.Int64Var(&cfg.storeMiB, "store-bytes", 1024, "persistent store budget in MiB (0: unbounded); oldest entries evict past it")
	flag.StringVar(&cfg.journalPath, "journal", "", "warm-restart journal path (default <store-dir>/journal.ndjson; daemons sharing a store dir need distinct journals)")
	flag.DurationVar(&cfg.jobDeadline, "job-deadline", 0, "per-job wall-clock deadline; a job over it fails (0: none)")
	flag.StringVar(&cfg.nodeID, "node-id", "", "stable node identity echoed by /healthz and /stats (default: the listener's host:port)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "json", "log output format: json|text")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "optional debug listen address serving /debug/pprof/ and /metrics (empty: disabled)")
	flag.IntVar(&cfg.flightRounds, "flight-rounds", 64, "GVT rounds in the tail of a job's event history that /jobs/{id}/flight serves")
	flag.IntVar(&cfg.flightRetain, "flight-retain", 128, "executed jobs that keep their event history once finished, before the oldest is released")
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err == nil {
		var logger *slog.Logger
		logger, err = obs.NewLogger(os.Stderr, *logFormat, level)
		if err == nil {
			err = run(cfg, logger)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// newAPIServer applies the service's HTTP hardening to a handler: header
// and read bounds so a stalled or hostile client cannot hold a
// connection open indefinitely. WriteTimeout stays 0 on purpose — the
// /jobs/{id}/events NDJSON stream legitimately writes for as long as a
// simulation runs — so slow-writer exposure is bounded by IdleTimeout
// between requests instead.
func newAPIServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

func run(cfg config, logger *slog.Logger) error {
	cacheBytes := cfg.cacheMiB << 20
	if cfg.cacheMiB <= 0 {
		cacheBytes = -1
	}
	opts := simd.Options{
		Workers:      cfg.workers,
		QueueDepth:   cfg.queue,
		CacheBytes:   cacheBytes,
		FlightRounds: cfg.flightRounds,
		FlightRetain: cfg.flightRetain,
		JobDeadline:  cfg.jobDeadline,
		Logger:       logger,
	}

	// Persistent store + warm-restart journal. Open errors are fatal —
	// a store that cannot even start is an operator mistake; only disks
	// that sour later degrade at runtime.
	if cfg.storeDir != "" {
		st, err := store.Open(store.Options{
			Dir:      cfg.storeDir,
			MaxBytes: cfg.storeMiB << 20,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		jpath := cfg.journalPath
		if jpath == "" {
			jpath = filepath.Join(cfg.storeDir, "journal.ndjson")
		}
		jl, err := store.OpenJournal(jpath, nil, logger)
		if err != nil {
			return err
		}
		defer jl.Close()
		opts.Store, opts.Journal = st, jl
	}

	// Listen explicitly so the real port (e.g. with -addr :0) is known
	// before recovery starts, and so the default node identity
	// (host:port) exists before the server is built.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	opts.NodeID = cfg.nodeID
	if opts.NodeID == "" {
		opts.NodeID = ln.Addr().String()
	}

	svc := simd.NewServer(opts)

	// Warm restart: re-enqueue journaled jobs interrupted by the previous
	// run. Completed ones come back as instant store hits; interrupted
	// ones re-execute. Recovery finishes before the first request is
	// served, so /stats never reports a half-replayed journal; the socket
	// is already bound, so early connections wait in the accept backlog.
	if n := svc.Recover(); n > 0 {
		logger.Info("warm restart recovered jobs", "jobs", n)
	}

	httpSrv := newAPIServer(svc.Handler())
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	build := obs.ReadBuild()
	logger.Info("simd listening", "addr", ln.Addr().String(), "node_id", opts.NodeID,
		"workers", cfg.workers, "queue", cfg.queue, "cache_mib", cfg.cacheMiB,
		"store_dir", cfg.storeDir, "go_version", build.GoVersion, "revision", build.ShortRevision())

	// Optional debug listener: pprof profiles plus a second /metrics
	// mount, kept off the public address so profiling stays opt-in and
	// firewallable separately from the API.
	var dbgSrv *http.Server
	if cfg.debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", svc.MetricsHandler())
		dbgSrv = newAPIServer(dmux)
		dbgSrv.Addr = cfg.debugAddr
		go func() {
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", cfg.debugAddr, "error", err.Error())
			}
		}()
		logger.Info("debug listener up", "addr", cfg.debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		svc.Close()
		return err // listener died before any signal
	case <-ctx.Done():
		stop() // a second signal kills the process instead of waiting out the drain
	}

	// Graceful drain: stop accepting connections, let in-flight HTTP
	// requests finish, then let every admitted job settle.
	logger.Info("simd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if dbgSrv != nil {
		dbgSrv.Shutdown(shutdownCtx)
	}
	svc.Close()
	logger.Info("simd drained")
	if err := <-errCh; err != nil {
		return err
	}
	return shutdownErr
}
