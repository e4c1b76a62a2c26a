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
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/store"
)

// config carries the parsed flags into run: the server's Options, which
// the flags that have a field there fill directly, and the rest.
type config struct {
	simd.Options
	addr, debugAddr       string
	cacheMiB, storeMiB    int64
	storeDir, journalPath string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "simulations executing concurrently")
	flag.IntVar(&cfg.QueueDepth, "queue", 64, "bounded queue depth beyond the running jobs; past it submissions get 429")
	flag.Int64Var(&cfg.cacheMiB, "cachesize", 64, "result cache budget in MiB (0: disable caching)")
	flag.StringVar(&cfg.storeDir, "store-dir", "", "persistent content-addressed result store directory (empty: memory-only)")
	flag.Int64Var(&cfg.storeMiB, "store-bytes", 1024, "persistent store budget in MiB (0: unbounded); oldest entries evict past it")
	flag.StringVar(&cfg.journalPath, "journal", "", "warm-restart journal path (default <store-dir>/journal.ndjson; daemons sharing a store dir need distinct journals)")
	flag.DurationVar(&cfg.JobDeadline, "job-deadline", 0, "per-job wall-clock deadline; a job over it fails (0: none)")
	flag.StringVar(&cfg.NodeID, "node-id", "", "stable node identity echoed by /healthz and /stats (default: the listener's host:port)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "optional debug listen address serving /debug/pprof/ and /metrics (empty: disabled)")
	flag.IntVar(&cfg.FlightRounds, "flight-rounds", 64, "GVT rounds in the tail of a job's event history that /jobs/{id}/flight serves")
	flag.IntVar(&cfg.FlightRetain, "flight-retain", 128, "executed jobs that keep their event history once finished, before the oldest is released")
	simd.Main("simd", func(logger *slog.Logger) error { return run(cfg, logger) })
}

func run(cfg config, logger *slog.Logger) error {
	opts := cfg.Options
	opts.Logger = logger
	opts.CacheBytes = cfg.cacheMiB << 20
	if cfg.cacheMiB <= 0 {
		opts.CacheBytes = -1
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
	if opts.NodeID == "" {
		opts.NodeID = ln.Addr().String()
	}

	svc := simd.NewServer(opts)
	defer svc.Close()

	// Warm restart: re-enqueue journaled jobs interrupted by the previous
	// run. Completed ones come back as instant store hits; interrupted
	// ones re-execute. Recovery finishes before the first request is
	// served, so /stats never reports a half-replayed journal; the socket
	// is already bound, so early connections wait in the accept backlog.
	if n := svc.Recover(); n > 0 {
		logger.Info("warm restart recovered jobs", "jobs", n)
	}
	build := obs.ReadBuild()
	logger.Info("simd listening", "addr", ln.Addr().String(), "node_id", opts.NodeID,
		"workers", opts.Workers, "queue", opts.QueueDepth, "cache_mib", cfg.cacheMiB,
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
		dbgSrv = simd.NewHTTPServer(dmux)
		dbgSrv.Addr = cfg.debugAddr
		go func() {
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", cfg.debugAddr, "error", err.Error())
			}
		}()
		logger.Info("debug listener up", "addr", cfg.debugAddr)
	}

	// Graceful drain: stop accepting connections, let in-flight HTTP
	// requests finish, then let every admitted job settle.
	return simd.ServeUntilSignal(logger, "simd", ln, svc.Handler(), 30*time.Second, func(ctx context.Context) {
		if dbgSrv != nil {
			dbgSrv.Shutdown(ctx)
		}
		svc.Close()
		logger.Info("simd drained")
	})
}
