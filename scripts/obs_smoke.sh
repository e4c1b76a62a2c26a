#!/usr/bin/env bash
# Observability smoke test for cmd/simd + cmd/simtop: exercises the
# paths the service smoke doesn't — a *running* job seen live, a
# post-mortem of a cancelled one, and the debug listener.
#   - start simd with -debug-addr and debug-level JSON logs,
#   - submit a long PHOLD job and scrape /metrics mid-run: a running
#     job is visible, workers are busy, engine counters are moving,
#   - cancel the job and fetch /jobs/{id}/flight: the flight recorder
#     still holds its recent rounds (the post-mortem use case),
#   - /debug/pprof/ and the debug /metrics mount respond,
#   - simtop -once renders a frame against the live daemon,
#   - every structured log line is valid JSON and SIGTERM drains clean.
# Needs: go, curl, jq. Used by `make obs-smoke` and the CI service job.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=obs-smoke
. scripts/smoke_lib.sh
smoke_init

PORT="${OBS_SMOKE_PORT:-18090}"
DBG_PORT="${OBS_SMOKE_DEBUG_PORT:-18091}"
BASE="http://127.0.0.1:${PORT}"
DBG="http://127.0.0.1:${DBG_PORT}"
LOG="${SMOKE_LOG_DIR}/simd.log"
# Big enough to run for a while: we need to catch it mid-flight.
LONG_SPEC='{"model":"phold","nodes":4,"workers_per_node":4,"lps_per_worker":64,"end_time":2000,"seed":7}'

echo "obs-smoke: building cmd/simd and cmd/simtop"
go build -o "${WORK}/simd" ./cmd/simd
go build -o "${WORK}/simtop" ./cmd/simtop

echo "obs-smoke: starting simd on ${BASE} (debug ${DBG})"
"${WORK}/simd" -addr "127.0.0.1:${PORT}" -debug-addr "127.0.0.1:${DBG_PORT}" \
  -workers 2 -log-level debug -log-format json >"${LOG}" 2>&1 &
SIMD_PID=$!
smoke_track "${SIMD_PID}"
wait_healthy "${BASE}" "${SIMD_PID}" "${LOG}"

# healthz carries build identity.
curl -sf "${BASE}/healthz" | jq -e '.status == "ok" and (.build.go_version | length) > 0' >/dev/null \
  || fail "healthz has no build info: $(curl -s "${BASE}/healthz")"

# --- long job: observe it while it runs ------------------------------
CODE=$(submit_spec "${BASE}" "${LONG_SPEC}" "${WORK}/sub.json")
[[ "${CODE}" == 202 ]] || fail "submit returned HTTP ${CODE}: $(cat "${WORK}/sub.json")"
ID=$(jq -r .id "${WORK}/sub.json")
echo "obs-smoke: submitted long job ${ID}"

wait_job_state "${BASE}" "${ID}" running
# Let a few GVT rounds land in the job's history before we look.
sleep 1

curl -sf "${BASE}/metrics" >"${WORK}/metrics_mid.txt" || fail "mid-run GET /metrics failed"

V=$(metric 'simd_jobs{state="running"}' "${WORK}/metrics_mid.txt") || fail "no running-jobs gauge"
[[ "${V}" == 1 ]] || fail "running jobs=${V} mid-run (want 1)"
V=$(metric 'simd_workers_busy' "${WORK}/metrics_mid.txt") || fail "no workers-busy gauge"
[[ "${V}" == 1 ]] || fail "busy workers=${V} mid-run (want 1)"
grep -q '^simd_engine_gvt_rounds_total [1-9]' "${WORK}/metrics_mid.txt" \
  || fail "engine rounds counter flat while a job is running"
grep -q '^simd_engine_events_processed_total [1-9]' "${WORK}/metrics_mid.txt" \
  || fail "engine processed-events counter flat while a job is running"
echo "obs-smoke: mid-run scrape sees the running job and moving engine counters"

# /stats mirrors the same picture.
curl -sf "${BASE}/stats" | jq -e '.workers_busy == 1 and .uptime_seconds > 0' >/dev/null \
  || fail "/stats disagrees mid-run: $(curl -s "${BASE}/stats")"

# --- debug listener: pprof and the second /metrics mount -------------
curl -sf "${DBG}/debug/pprof/" >/dev/null || fail "debug pprof index unreachable"
curl -sf "${DBG}/debug/pprof/cmdline" >/dev/null || fail "pprof cmdline unreachable"
# Scrape first, then grep: piped, grep -q closes the pipe on its first
# match and curl fails on the write it then makes (exit 23).
curl -sf "${DBG}/metrics" >"${WORK}/metrics_dbg.txt" || fail "debug /metrics unreachable"
grep -q '^simd_build_info' "${WORK}/metrics_dbg.txt" || fail "debug /metrics mount broken"
echo "obs-smoke: debug listener serves pprof and metrics"

# --- simtop renders a frame against the live daemon ------------------
"${WORK}/simtop" -addr "${BASE}" -once >"${WORK}/simtop.txt" || fail "simtop -once failed"
grep -q "simtop — ${BASE}" "${WORK}/simtop.txt" || fail "simtop frame missing header"
grep -q "${ID}" "${WORK}/simtop.txt" || fail "simtop frame does not list job ${ID}"
echo "obs-smoke: simtop rendered the running job"

# --- cancel, then read the post-mortem from the flight recorder ------
curl -sf -X DELETE "${BASE}/jobs/${ID}" >/dev/null || fail "cancel failed"
for i in $(seq 1 100); do
  STATE=$(curl -sf "${BASE}/jobs/${ID}" | jq -r .state)
  [[ "${STATE}" == cancelled ]] && break
  [[ "$i" == 100 ]] && fail "job never settled after cancel (state ${STATE})"
  sleep 0.1
done

CODE=$(curl -s -o "${WORK}/flight.json" -w '%{http_code}' "${BASE}/jobs/${ID}/flight")
[[ "${CODE}" == 200 ]] || fail "flight fetch returned HTTP ${CODE}"
jq -e '.state == "cancelled" and .retained == true and .rounds_total > 0 and (.recent | length) > 0 and .gvt > 0' \
  "${WORK}/flight.json" >/dev/null \
  || fail "cancelled job's flight record incomplete: $(cat "${WORK}/flight.json")"
echo "obs-smoke: flight recorder kept $(jq -r '.recent | length' "${WORK}/flight.json") rounds of the cancelled job (gvt $(jq -r .gvt "${WORK}/flight.json"))"

# Cancelled jobs count as finished in the metrics.
curl -sf "${BASE}/metrics" >"${WORK}/metrics_end.txt"
V=$(metric 'simd_jobs_finished_total{state="cancelled"}' "${WORK}/metrics_end.txt") || fail "no cancelled-finished counter"
[[ "${V}" == 1 ]] || fail "cancelled finished jobs=${V} (want 1)"

# --- structured logs: every line is JSON with the expected shape -----
graceful_stop "${SIMD_PID}"

jq -es 'length > 0' "${LOG}" >/dev/null \
  || fail "log output is not line-delimited JSON: $(head -3 "${LOG}")"
jq -es 'map(select(.msg == "job admitted")) | length == 1' "${LOG}" >/dev/null \
  || fail "no 'job admitted' log line"
jq -es 'map(select(.msg == "job finished" and .state == "cancelled")) | length == 1' "${LOG}" >/dev/null \
  || fail "no cancelled 'job finished' log line"
jq -es 'map(select(.level == "DEBUG" and .msg == "http request")) | length > 0' "${LOG}" >/dev/null \
  || fail "no access-log lines at debug level"
echo "obs-smoke: structured logs check out ($(wc -l < "${LOG}") JSON lines)"
echo "obs-smoke: PASS"
