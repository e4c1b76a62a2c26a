#!/usr/bin/env bash
# Load-generator smoke test for cmd/loadgen against a live cmd/simd:
#   phase A: duplicate-heavy mix on a 2-worker daemon — the content
#            cache must absorb the repeats (cache-hit ratio >= 0.8,
#            engine executions == the distinct-spec count) with no lost
#            or failed requests, graded by loadgen's own SLO gate.
#   phase B: distinct-heavy mix against a 1-worker, queue-2 daemon —
#            admission control must push back (>= 1 honored 429) and
#            still execute every unique spec exactly once, losing
#            nothing.
#   phase C: the gate itself — an SLO that cannot hold (demanding 429s
#            from a duplicate mix that never queues) must make loadgen
#            exit 1, and the JSON summary must name the failed SLO.
# Needs: go, curl, jq. Used by `make loadgen-smoke` and the CI service
# job.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=loadgen-smoke
. scripts/smoke_lib.sh
smoke_init

PORT="${LOADGEN_SMOKE_PORT:-18110}"
BASE="http://127.0.0.1:${PORT}"

echo "loadgen-smoke: building cmd/simd and cmd/loadgen"
go build -o "${WORK}/simd" ./cmd/simd
go build -o "${WORK}/loadgen" ./cmd/loadgen

# --- phase A: duplicate-heavy — the cache absorbs the load ------------
LOG_A="${SMOKE_LOG_DIR}/simd_a.log"
echo "loadgen-smoke: phase A — duplicate mix on ${BASE} (2 workers)"
"${WORK}/simd" -addr "127.0.0.1:${PORT}" -workers 2 -cachesize 64 >"${LOG_A}" 2>&1 &
PID_A=$!
smoke_track "${PID_A}"
wait_healthy "${BASE}" "${PID_A}" "${LOG_A}"

"${WORK}/loadgen" -addr "${BASE}" -mix duplicate -n 60 -distinct 3 -rps 200 \
  -slo-cache-hit-min 0.8 -slo-exact-executions 3 -slo-p99-max 60s \
  -timeout 100s >"${WORK}/summary_a.json" \
  || fail "phase A loadgen reported failure: $(cat "${WORK}/summary_a.json")"
jq -e '.requests == 60 and .completed == 60 and .lost == 0 and .failed == 0' \
  "${WORK}/summary_a.json" >/dev/null \
  || fail "phase A summary lost results: $(cat "${WORK}/summary_a.json")"
jq -e '.cache_hit_ratio >= 0.8 and .executions_delta == 3' "${WORK}/summary_a.json" >/dev/null \
  || fail "phase A cache did not absorb the duplicates: $(cat "${WORK}/summary_a.json")"
echo "loadgen-smoke: phase A PASS (ratio $(jq -r .cache_hit_ratio "${WORK}/summary_a.json"), 3 executions for 60 requests)"
graceful_stop "${PID_A}"

# --- phase B: distinct-heavy — admission control pushes back ----------
LOG_B="${SMOKE_LOG_DIR}/simd_b.log"
echo "loadgen-smoke: phase B — distinct mix on ${BASE} (1 worker, queue 2)"
"${WORK}/simd" -addr "127.0.0.1:${PORT}" -workers 1 -queue 2 -cachesize 64 >"${LOG_B}" 2>&1 &
PID_B=$!
smoke_track "${PID_B}"
wait_healthy "${BASE}" "${PID_B}" "${LOG_B}"

# -end-time 100 makes each job long enough that 200 rps fills the queue
# before the one worker drains it; at the default 10 the jobs can finish
# as fast as they arrive and no 429 is ever answered.
"${WORK}/loadgen" -addr "${BASE}" -mix distinct -n 12 -rps 200 -seed-base 100 -end-time 100 \
  -slo-min-429 1 -slo-exact-executions 12 \
  -timeout 100s >"${WORK}/summary_b.json" \
  || fail "phase B loadgen reported failure: $(cat "${WORK}/summary_b.json")"
jq -e '.requests == 12 and .completed == 12 and .lost == 0 and .failed == 0' \
  "${WORK}/summary_b.json" >/dev/null \
  || fail "phase B lost or duplicated results: $(cat "${WORK}/summary_b.json")"
jq -e '.honored_429 >= 1 and .executions_delta == 12' "${WORK}/summary_b.json" >/dev/null \
  || fail "phase B saw no honored backpressure: $(cat "${WORK}/summary_b.json")"
echo "loadgen-smoke: phase B PASS ($(jq -r .rejected_429 "${WORK}/summary_b.json") x 429, $(jq -r .honored_429 "${WORK}/summary_b.json") honored, 12/12 executed)"

# --- phase C: a failing SLO must actually gate ------------------------
# A duplicate mix never fills the queue, so demanding >= 1 honored 429
# is unsatisfiable: loadgen must exit 1 (SLO violation), not 0 and not
# 2 (operational failure), and the summary must name the failed gate.
echo "loadgen-smoke: phase C — unsatisfiable SLO must exit 1"
RC=0
"${WORK}/loadgen" -addr "${BASE}" -mix duplicate -n 3 -distinct 1 -rps 50 -seed-base 999 \
  -slo-min-429 1 -timeout 100s >"${WORK}/summary_c.json" || RC=$?
[[ "${RC}" == 1 ]] || fail "phase C exit code ${RC} (want 1: SLO violation): $(cat "${WORK}/summary_c.json")"
jq -e '[.slos[] | select(.ok == false) | .name] == ["honored_429"]' "${WORK}/summary_c.json" >/dev/null \
  || fail "phase C summary does not single out the failed SLO: $(cat "${WORK}/summary_c.json")"
echo "loadgen-smoke: phase C PASS (gate fired, exit 1, honored_429 named)"

graceful_stop "${PID_B}"
echo "loadgen-smoke: PASS"
