// Package simd is the embeddable simulation job service: it turns the
// one-shot engine of internal/core into simulation-as-a-service.
//
// The design leans on a property PRs 1–4 established deliberately: a
// run is a *pure function* of its configuration. Committed event
// streams are bit-identical across pool modes, host parallelism, fault
// plans and balancer policies, and run reports marshal to canonical
// byte-stable JSON. That purity is what makes the three service
// mechanisms sound rather than heuristic:
//
//   - Content addressing: a JobSpec (internal/run.Spec) canonicalizes (aliases resolved,
//     defaults made explicit, irrelevant fields cleared) and hashes to
//     a stable SHA-256; the hash fully determines the result bytes.
//   - Result cache: a byte-budget LRU keyed by spec hash stores the
//     canonical report JSON. A hit returns the exact bytes a fresh run
//     would produce, without running anything.
//   - Singleflight: identical specs submitted while one is queued or
//     running attach to that job instead of executing again, so N
//     concurrent identical submissions cost one execution.
//
// Around these sits a bounded job queue and worker pool (built on
// internal/harness.Pool) with admission control — a full queue rejects
// rather than blocks, which the HTTP front-end maps to 429 — plus job
// lifecycle (queued/running/done/failed/cancelled), mid-run
// cancellation via the sim kernel's cancel path, graceful drain on
// shutdown, and a per-GVT-round progress feed (threaded from
// internal/core through internal/metrics) that streams as NDJSON from
// /jobs/{id}/events.
//
// cmd/simd wraps the package in an HTTP/JSON daemon; Handler exposes
// the same API for embedding in other servers.
package simd
