GO ?= go

# serve flags (override on the command line: make serve ADDR=:9090)
ADDR      ?= :8080
WORKERS   ?= 0
QUEUE     ?= 64
CACHESIZE ?= 64

.PHONY: all help build test verify bench benchdiff microbench cover loc loc-check fmt serve smoke obs-smoke durability-smoke cluster-smoke loadgen loadgen-smoke clean

# loadgen flags (override on the command line: make loadgen N=200 RPS=100)
LOADGEN_ADDR ?= http://127.0.0.1:8080
MIX          ?= duplicate
N            ?= 100
RPS          ?= 50

all: build

help:
	@echo "Targets:"
	@echo "  build      compile everything"
	@echo "  test       run the test suite"
	@echo "  verify     pre-merge gate: go vet + full suite under -race"
	@echo "  bench      telemetry-overhead gate, then regenerate BENCH_baseline.json"
	@echo "  benchdiff  diff -u a fresh virtual-time baseline against the checked-in BENCH_baseline.json"
	@echo "  microbench hot-path microbenchmarks (sim kernel, PE idle loops, fabric send/deliver, event queue, rollback storm, GVT rounds)"
	@echo "  cover      coverage profile over ./internal/..."
	@echo "  loc        the audited line count: tracked non-test Go outside benchmark/ (ROADMAP aim 2)"
	@echo "  loc-check  fail if the audited line count exceeds LOC_CEILING (CI runs it)"
	@echo "  serve      run the simulation job server (cmd/simd)"
	@echo "  smoke      end-to-end service smoke test (scripts/service_smoke.sh)"
	@echo "  obs-smoke  observability smoke test: live /metrics, flight recorder, pprof, simtop (scripts/obs_smoke.sh)"
	@echo "  durability-smoke  crash-safety smoke test: kill -9 warm restart, degraded mode, corrupt-entry quarantine, job deadline (scripts/durability_smoke.sh)"
	@echo "  cluster-smoke  failover smoke test: 3-node cluster loses a member to kill -9 with zero jobs lost (scripts/cluster_smoke.sh)"
	@echo "  loadgen    replay a job mix against a running service (make loadgen LOADGEN_ADDR=... MIX=duplicate N=100 RPS=50)"
	@echo "  loadgen-smoke  SLO-gated load smoke test: cache absorption, honored 429 backpressure, failing-gate exit code (scripts/loadgen_smoke.sh)"
	@echo "  fmt        gofmt the tree"
	@echo "  clean      remove build and run artifacts"
	@echo ""
	@echo "serve flags (make serve ADDR=:9090 WORKERS=4 QUEUE=128 CACHESIZE=256):"
	@echo "  ADDR       -addr       HTTP listen address            (default :8080)"
	@echo "  WORKERS    -workers    concurrent simulations         (default 0 = GOMAXPROCS)"
	@echo "  QUEUE      -queue      bounded job-queue depth        (default 64; full queue -> 429)"
	@echo "  CACHESIZE  -cachesize  result cache budget in MiB     (default 64; 0 disables)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full pre-merge gate: static analysis plus the whole test
# suite under the race detector.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...

# bench runs the telemetry-overhead benchmark (fails if sampling or
# tracing shifts the committed-event rate by >= 5%), then regenerates
# the deterministic virtual-time baseline (BENCH_baseline.json, checked
# in, compared exactly). Host wall-clock/allocation cost is measured by
# benchmark/ (see benchmark/README.md).
bench:
	$(GO) test -run xxx -bench BenchmarkTelemetry -benchtime 3x .
	$(GO) run ./cmd/bench -out BENCH_baseline.json

# benchdiff diffs a fresh virtual-time baseline against the checked-in
# copy; a changed, missing or extra cell is a hunk and a non-zero exit —
# a functional/performance regression. CI runs this as a blocking gate,
# before `make bench` overwrites the file.
benchdiff:
	$(GO) run ./cmd/bench -out - | diff -u BENCH_baseline.json -

# microbench runs the hot-path microbenchmarks (events/sec, allocs/op)
# for the sim kernel (BenchmarkPollRing: constant-delay Poll steps at 20
# and 488 processes), the PE idle-pass machine (BenchmarkIdlePass: an
# idle comm pass as Poll steps vs the literal loop), the null-message
# worker's idle predicate (BenchmarkBlocked), the fabric's send and
# delivery through the wire heap (BenchmarkSendDeliver, 0 allocs/op), the
# event queue, rollback storm, and two full Time Warp runs (RollbackHeavy,
# GVTRounds) on the engine's one allocation path: events always recycle,
# so there is no unpooled mode to A/B against.
microbench:
	$(GO) test -run xxx -bench . -benchtime 100000x ./internal/sim ./internal/pe ./internal/mpi ./internal/conservative ./internal/fabric
	$(GO) test -run xxx -bench . -benchtime 100000x ./internal/eventq
	$(GO) test -run xxx -bench 'RollbackHeavy|GVTRounds' -benchtime 3x ./internal/core

# cover writes a coverage profile over the library packages — internal
# plus the public SDK. CI fails if total coverage drops below its
# recorded floor.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/... ./pkg/...
	$(GO) tool cover -func=coverage.out | tail -1

# loc prints the number ROADMAP.md's aim 2 audits: lines of tracked Go,
# minus _test.go files, minus the benchmark module.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# loc-check is the ratchet: the count may not pass the ceiling, which is
# what the tree measured when it was last lowered. A change that needs
# more lines raises this number in the same diff, where a reviewer sees
# it; a change that removes lines lowers it.
LOC_CEILING = 20793
loc-check:
	@n=$$($(MAKE) -s loc); if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$n non-test Go lines, over the ceiling of $(LOC_CEILING) (see ROADMAP aim 2; raise LOC_CEILING in this diff if the lines are needed)"; exit 1; \
	else echo "loc-check: $$n lines (ceiling $(LOC_CEILING))"; fi

# serve runs the simulation job server. See `make help` for the flags.
serve:
	$(GO) run ./cmd/simd -addr $(ADDR) -workers $(WORKERS) -queue $(QUEUE) -cachesize $(CACHESIZE)

# smoke starts a throwaway server, submits the same small PHOLD job
# twice and asserts the second submission is a cache hit with
# byte-identical report bytes. CI runs this as the service gate.
smoke:
	./scripts/service_smoke.sh

# obs-smoke exercises the observability surface against a live daemon:
# mid-run /metrics scrape, flight recorder of a cancelled job, the
# -debug-addr pprof listener, simtop, and structured-log shape. CI runs
# it alongside `smoke` in the service gate.
obs-smoke:
	./scripts/obs_smoke.sh

# durability-smoke proves the crash-safety story against real processes:
# a daemon is SIGKILLed mid-run, its successor on the same -store-dir
# serves completed results byte-identically with zero re-execution and
# re-runs the interrupted job from the journal; a broken store disk
# degrades to memory-only; a corrupt entry is quarantined, never served;
# -job-deadline fails over-budget jobs. CI runs it in the service gate.
durability-smoke:
	./scripts/durability_smoke.sh

# cluster-smoke proves the failover story: a 3-node simdcluster loses a
# member to kill -9 mid-run and no submitted job is lost — queued work
# re-dispatches to live replicas, completed reports survive their
# owner's death byte-identically via the shared store, and repeat
# submissions stay cache hits. CI runs it in the service gate.
cluster-smoke:
	./scripts/cluster_smoke.sh

# loadgen replays a job mix against an already-running service and
# prints an SLO-graded summary (JSON on stdout, table on stderr). See
# cmd/loadgen for the full flag set; this wrapper covers the basics.
loadgen:
	$(GO) run ./cmd/loadgen -addr $(LOADGEN_ADDR) -mix $(MIX) -n $(N) -rps $(RPS)

# loadgen-smoke boots throwaway daemons and drives them with
# cmd/loadgen: a duplicate-heavy mix must be absorbed by the content
# cache (hit ratio >= 0.8, executions == distinct specs), a
# distinct-heavy mix against a 1-worker daemon must surface honored 429
# backpressure with zero lost results, and a deliberately unsatisfiable
# SLO must exit 1. CI runs it in the service gate.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

fmt:
	gofmt -l -w .

clean:
	$(GO) clean ./...
	rm -f run.trace run.json results.csv coverage.out coverage.html
