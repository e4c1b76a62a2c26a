#!/usr/bin/env bash
# End-to-end smoke test for the simulation job service (cmd/simd):
# start the daemon, submit the same small PHOLD job twice, and assert
#   - both submissions succeed over HTTP,
#   - the two run reports are byte-identical,
#   - the second submission is served from the result cache
#     (cache_hit_now=true and the engine executed exactly once),
#   - the full NDJSON event stream replays and terminates with "end",
#   - /metrics agrees: execution, cache-hit and job-state counters all
#     move as expected across the duplicate submission,
#   - /jobs/{id}/flight returns the completed job's recorded rounds,
#   - POST /jobs?wait answers a miss and a hit in one request each, the
#     inline report byte-identical to what /jobs/{id}/report serves,
#   - SIGTERM shuts the daemon down cleanly.
# Needs: go, curl, jq. Used by `make smoke` and the CI service job.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=smoke
. scripts/smoke_lib.sh
smoke_init

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
LOG="${SMOKE_LOG_DIR}/simd.log"
SPEC='{"model":"phold","nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":10,"seed":42}'

echo "smoke: building cmd/simd"
go build -o "${WORK}/simd" ./cmd/simd

echo "smoke: starting simd on ${BASE}"
"${WORK}/simd" -addr "127.0.0.1:${PORT}" -node-id smoke-n1 -workers 2 -cachesize 16 >"${LOG}" 2>&1 &
SIMD_PID=$!
smoke_track "${SIMD_PID}"
wait_healthy "${BASE}" "${SIMD_PID}" "${LOG}"

# The daemon answers as the identity it was launched with — the cluster
# health gate relies on this to catch mis-wired membership.
NODE=$(curl -sf "${BASE}/healthz" | jq -r .node_id)
[[ "${NODE}" == smoke-n1 ]] || fail "/healthz node_id=${NODE} (want smoke-n1)"
NODE=$(curl -sf "${BASE}/stats" | jq -r .node_id)
[[ "${NODE}" == smoke-n1 ]] || fail "/stats node_id=${NODE} (want smoke-n1)"
echo "smoke: daemon identifies as smoke-n1"

# --- first submission: executes for real -----------------------------
CODE1=$(submit_spec "${BASE}" "${SPEC}" "${WORK}/sub1.json")
[[ "${CODE1}" == 202 ]] || fail "first submit returned HTTP ${CODE1} (want 202): $(cat "${WORK}/sub1.json")"
ID1=$(jq -r .id "${WORK}/sub1.json")
echo "smoke: submitted ${ID1}"

wait_job_state "${BASE}" "${ID1}" done
echo "smoke: ${ID1} done"

CODE=$(curl -s -o "${WORK}/report1.json" -w '%{http_code}' "${BASE}/jobs/${ID1}/report")
[[ "${CODE}" == 200 ]] || fail "report fetch returned HTTP ${CODE}"
jq -e . "${WORK}/report1.json" >/dev/null || fail "report is not valid JSON"

# --- event stream: full replay ends with an "end" record -------------
curl -sf "${BASE}/jobs/${ID1}/events" >"${WORK}/events.ndjson"
PROGRESS=$(grep -c '"type":"progress"' "${WORK}/events.ndjson") || true
tail -1 "${WORK}/events.ndjson" | jq -e '.type == "end" and .state == "done"' >/dev/null \
  || fail "event stream did not end cleanly: $(tail -1 "${WORK}/events.ndjson")"
[[ "${PROGRESS}" -gt 0 ]] || fail "event stream replayed no progress lines"
echo "smoke: event stream replayed ${PROGRESS} rounds"

# --- second submission: must be a cache hit, not a re-run ------------
CODE2=$(submit_spec "${BASE}" "${SPEC}" "${WORK}/sub2.json")
[[ "${CODE2}" == 200 ]] || fail "second submit returned HTTP ${CODE2} (want 200 cache hit): $(cat "${WORK}/sub2.json")"
jq -e '.cache_hit_now == true and .state == "done"' "${WORK}/sub2.json" >/dev/null \
  || fail "second submit was not a cache hit: $(cat "${WORK}/sub2.json")"
ID2=$(jq -r .id "${WORK}/sub2.json")

CODE=$(curl -s -o "${WORK}/report2.json" -w '%{http_code}' "${BASE}/jobs/${ID2}/report")
[[ "${CODE}" == 200 ]] || fail "cached report fetch returned HTTP ${CODE}"
cmp -s "${WORK}/report1.json" "${WORK}/report2.json" \
  || fail "cached report is not byte-identical to the executed one"

EXECS=$(curl -sf "${BASE}/stats" | jq -r .executions)
[[ "${EXECS}" == 1 ]] || fail "engine executed ${EXECS} times (want exactly 1)"
echo "smoke: cache hit verified (1 execution, byte-identical reports)"

# --- /metrics: the counters must tell the same story -----------------
# One admitted execution, one cache-hit submission, two finished jobs.
curl -sf "${BASE}/metrics" >"${WORK}/metrics.txt" || fail "GET /metrics failed"

V=$(metric 'simd_executions_total' "${WORK}/metrics.txt") || fail "/metrics missing simd_executions_total"
[[ "${V}" == 1 ]] || fail "simd_executions_total=${V} (want 1)"
V=$(metric 'simd_cache_hits_total' "${WORK}/metrics.txt") || fail "/metrics missing simd_cache_hits_total"
[[ "${V}" == 1 ]] || fail "simd_cache_hits_total=${V} (want 1)"
V=$(metric 'simd_submissions_total{outcome="admitted"}' "${WORK}/metrics.txt") || fail "/metrics missing admitted submissions"
[[ "${V}" == 1 ]] || fail "admitted submissions=${V} (want 1)"
V=$(metric 'simd_submissions_total{outcome="cache_hit"}' "${WORK}/metrics.txt") || fail "/metrics missing cache_hit submissions"
[[ "${V}" == 1 ]] || fail "cache_hit submissions=${V} (want 1)"
V=$(metric 'simd_jobs{state="done"}' "${WORK}/metrics.txt") || fail "/metrics missing done-jobs gauge"
[[ "${V}" == 2 ]] || fail "done jobs=${V} (want 2)"
V=$(metric 'simd_jobs_finished_total{state="done"}' "${WORK}/metrics.txt") || fail "/metrics missing finished-jobs counter"
[[ "${V}" == 2 ]] || fail "finished done jobs=${V} (want 2)"
grep -q '^simd_engine_events_committed_total [1-9]' "${WORK}/metrics.txt" \
  || fail "engine committed-events counter never moved"
echo "smoke: /metrics agrees (1 execution, 1 cache hit, 2 done jobs)"

# --- flight recorder of the completed job ----------------------------
CODE=$(curl -s -o "${WORK}/flight.json" -w '%{http_code}' "${BASE}/jobs/${ID1}/flight")
[[ "${CODE}" == 200 ]] || fail "flight fetch returned HTTP ${CODE}"
jq -e '.state == "done" and .rounds_total > 0 and (.recent | length) > 0' "${WORK}/flight.json" >/dev/null \
  || fail "flight record incomplete: $(cat "${WORK}/flight.json")"
FLIGHT_ROUNDS=$(jq -r .rounds_total "${WORK}/flight.json")
[[ "${FLIGHT_ROUNDS}" == "${PROGRESS}" ]] \
  || fail "flight rounds_total=${FLIGHT_ROUNDS} != streamed progress lines ${PROGRESS}"
echo "smoke: flight recorder holds ${FLIGHT_ROUNDS} rounds for ${ID1}"

# --- POST /jobs?wait: the whole round trip in one request -------------
# The answer is {"status":{...},"report":<report>}. jq reads the status;
# the report is cut out by byte offset instead — jq re-encodes numbers
# (jq 1.6 rounds the 64-bit seeds), and the claim is about bytes.
wait_roundtrip() { # SPEC OUT-PREFIX WANT-CACHE-HIT
  local spec="$1" out="$2" want_hit="$3" code id off
  code=$(curl -s -o "${out}.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "${spec}" "${BASE}/jobs?wait")
  [[ "${code}" == 200 ]] || fail "POST /jobs?wait returned HTTP ${code} (want 200): $(cat "${out}.json")"
  jq -e --argjson hit "${want_hit}" \
    '.status.state == "done" and .status.cache_hit_now == $hit and (.report | type) == "object"' \
    "${out}.json" >/dev/null || fail "wait answer is not a done job with a report: $(jq -c .status "${out}.json")"
  id=$(jq -j .status.id "${out}.json")
  off=$(LC_ALL=C awk '{ print index($0, ",\"report\":"); exit }' "${out}.json")
  tail -c +"$((off + 10))" "${out}.json" | head -c -1 >"${out}.report"
  code=$(curl -s -o "${out}.served" -w '%{http_code}' "${BASE}/jobs/${id}/report")
  [[ "${code}" == 200 ]] || fail "report fetch for ${id} returned HTTP ${code}"
  cmp -s "${out}.report" "${out}.served" \
    || fail "inline report of ${id} is not byte-identical to /jobs/${id}/report"
  echo "${id}"
}
SPEC_COLD='{"model":"phold","nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":10,"seed":43}'
IDW=$(wait_roundtrip "${SPEC_COLD}" "${WORK}/wait-miss" false)
echo "smoke: ${IDW} ran and answered inline (miss)"
IDW=$(wait_roundtrip "${SPEC}" "${WORK}/wait-hit" true)
cmp -s "${WORK}/wait-hit.report" "${WORK}/report1.json" \
  || fail "inline cached report differs from the first execution's"
EXECS=$(curl -sf "${BASE}/stats" | jq -r .executions)
[[ "${EXECS}" == 2 ]] || fail "engine executed ${EXECS} times (want 2: the first job and the wait miss)"
echo "smoke: ${IDW} answered inline from the cache (hit), reports byte-identical"

# --- graceful shutdown ----------------------------------------------
graceful_stop "${SIMD_PID}"
echo "smoke: PASS"
