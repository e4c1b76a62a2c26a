package simd

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Main is the rest of a daemon's main once its own flags are registered:
// it adds -log-level and -log-format, parses the command line, builds the
// logger and runs; an error is printed as "name: err" and exits 1.
// cmd/simd and cmd/simdcluster share it, with the rest of this file: a
// daemon's life — logger from flags, hardened listener, serve until
// signalled, bounded drain — is written once.
func Main(name string, run func(*slog.Logger) error) {
	level := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	format := flag.String("log-format", "json", "log output format: json|text")
	flag.Parse()
	var logger *slog.Logger
	lv, err := obs.ParseLevel(*level)
	if err == nil {
		logger, err = obs.NewLogger(os.Stderr, *format, lv)
	}
	if err == nil {
		err = run(logger)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// NewHTTPServer applies the service's HTTP hardening to a handler: header
// and read bounds so a stalled or hostile client cannot hold a
// connection open indefinitely. WriteTimeout stays 0 on purpose — the
// /jobs/{id}/events NDJSON stream legitimately writes for as long as a
// simulation runs — so slow-writer exposure is bounded by IdleTimeout
// between requests instead.
func NewHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    64 << 10,
	}
}

// ServeUntilSignal serves handler on ln until SIGINT or SIGTERM, then
// drains: it logs name+" shutting down", stops accepting connections,
// gives in-flight requests up to grace to finish, and calls stop — the
// daemon's own graceful teardown, under the same deadline — before
// returning. A second signal kills the process instead of waiting out
// the drain. If the listener dies before any signal its error is
// returned at once; what the caller has deferred is the teardown then.
func ServeUntilSignal(log *slog.Logger, name string, ln net.Listener, handler http.Handler, grace time.Duration, stop func(context.Context)) error {
	srv := NewHTTPServer(handler)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	ctx, unwatch := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer unwatch()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
		unwatch()
	}
	log.Info(name + " shutting down")
	drain, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	shutdownErr := srv.Shutdown(drain)
	stop(drain)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return shutdownErr
}
