#!/usr/bin/env bash
# Durability smoke test for cmd/simd's persistent store + warm-restart
# journal (three daemon generations on one store directory):
#   gen 1: complete one job, catch a second mid-run, kill -9 the daemon.
#   gen 2: the completed result is a store hit — byte-identical, zero
#          re-execution; the interrupted job is re-enqueued from the
#          journal (/stats .recovered). Then the store's disk is broken
#          out from under it: jobs keep succeeding from memory, /healthz
#          flips to "degraded", /metrics shows simd_store_degraded 1.
#   gen 3: disk repaired but one entry corrupted on disk; the corrupt
#          entry is quarantined (never served) and recomputed to the
#          same bytes; -job-deadline fails an over-budget job with a
#          deadline error.
# Needs: go, curl, jq. Used by `make durability-smoke` and the CI
# service job.
set -euo pipefail

cd "$(dirname "$0")/.."
SMOKE_NAME=durability-smoke
. scripts/smoke_lib.sh
smoke_init

PORT="${DURABILITY_SMOKE_PORT:-18100}"
BASE="http://127.0.0.1:${PORT}"
LOG="${SMOKE_LOG_DIR}/simd.log"
STORE="${WORK}/store"
SPEC_DONE='{"model":"phold","nodes":2,"workers_per_node":2,"lps_per_worker":8,"end_time":10,"seed":42}'
SPEC_SLOW='{"model":"phold","nodes":4,"workers_per_node":4,"lps_per_worker":64,"end_time":5000,"seed":7}'

start_daemon() { # extra args appended to the common flags
  "${WORK}/simd" -addr "127.0.0.1:${PORT}" -store-dir "${STORE}" -workers 2 "$@" \
    >>"${LOG}" 2>&1 &
  SIMD_PID=$!
  smoke_track "${SIMD_PID}"
  wait_healthy "${BASE}" "${SIMD_PID}" "${LOG}"
}

submit() { submit_spec "${BASE}" "$1" "$2"; }

wait_state() { wait_job_state "${BASE}" "$1" "$2"; }

echo "durability-smoke: building cmd/simd"
go build -o "${WORK}/simd" ./cmd/simd

# --- generation 1: seed the store, then die mid-run -------------------
echo "durability-smoke: gen 1 on ${BASE} (store ${STORE})"
start_daemon

CODE=$(submit "${SPEC_DONE}" "${WORK}/sub1.json")
[[ "${CODE}" == 202 ]] || fail "submit returned HTTP ${CODE}: $(cat "${WORK}/sub1.json")"
ID1=$(jq -r .id "${WORK}/sub1.json")
wait_state "${ID1}" done
curl -sf "${BASE}/jobs/${ID1}/report" >"${WORK}/report1.json" || fail "report fetch failed"

CODE=$(submit "${SPEC_SLOW}" "${WORK}/sub2.json")
[[ "${CODE}" == 202 ]] || fail "slow submit returned HTTP ${CODE}"
wait_state "$(jq -r .id "${WORK}/sub2.json")" running

echo "durability-smoke: kill -9 mid-run"
kill -9 "${SIMD_PID}"
wait "${SIMD_PID}" 2>/dev/null || true

# --- generation 2: warm restart ---------------------------------------
echo "durability-smoke: gen 2 warm restart"
start_daemon

RECOVERED=$(curl -sf "${BASE}/stats" | jq -r .recovered)
[[ "${RECOVERED}" == 1 ]] || fail "recovered=${RECOVERED} (want 1: the interrupted job)"

CODE=$(submit "${SPEC_DONE}" "${WORK}/sub3.json")
[[ "${CODE}" == 200 ]] || fail "post-restart resubmit returned HTTP ${CODE} (want 200 hit)"
jq -e '.cache_hit_now == true and .store_hit == true and .state == "done"' "${WORK}/sub3.json" >/dev/null \
  || fail "resubmit after kill -9 was not a store hit: $(cat "${WORK}/sub3.json")"
ID3=$(jq -r .id "${WORK}/sub3.json")
curl -sf "${BASE}/jobs/${ID3}/report" >"${WORK}/report3.json" || fail "store-hit report fetch failed"
cmp -s "${WORK}/report1.json" "${WORK}/report3.json" \
  || fail "store-hit report is not byte-identical across the crash"

EXECS=$(curl -sf "${BASE}/stats" | jq -r .executions)
[[ "${EXECS}" == 1 ]] || fail "executions=${EXECS} after restart (want 1: only the recovered job re-runs)"
echo "durability-smoke: store hit verified across kill -9 (byte-identical, 0 re-executions)"

# --- degraded mode: break the disk, keep serving ----------------------
# objects becomes a regular file, so every store read and publish fails
# with ENOTDIR — an infrastructure fault, which works even when the
# smoke runs as root (chmod tricks don't).
mv "${STORE}/objects" "${STORE}/objects.bak"
echo "not a directory" >"${STORE}/objects"

for SEED in 201 202 203; do
  SPEC="{\"model\":\"phold\",\"nodes\":2,\"workers_per_node\":2,\"lps_per_worker\":8,\"end_time\":10,\"seed\":${SEED}}"
  CODE=$(submit "${SPEC}" "${WORK}/deg.json")
  [[ "${CODE}" == 202 ]] || fail "degraded-phase submit returned HTTP ${CODE}"
  wait_state "$(jq -r .id "${WORK}/deg.json")" done
done

STATUS=$(curl -sf "${BASE}/healthz" | jq -r .status)
[[ "${STATUS}" == degraded ]] || fail "healthz status=${STATUS} with a broken store (want degraded)"
curl -sf "${BASE}/metrics" >"${WORK}/metrics_deg.txt"
V=$(metric 'simd_store_degraded' "${WORK}/metrics_deg.txt") || fail "/metrics missing simd_store_degraded"
[[ "${V}" == 1 ]] || fail "simd_store_degraded=${V} (want 1)"
echo "durability-smoke: degraded mode verified (jobs succeed from memory, /healthz and /metrics agree)"

kill -9 "${SIMD_PID}"
wait "${SIMD_PID}" 2>/dev/null || true

# --- generation 3: repaired disk, corrupt entry, job deadline ---------
rm "${STORE}/objects"
mv "${STORE}/objects.bak" "${STORE}/objects"
OBJ=$(find "${STORE}/objects" -type f | head -1)
[[ -n "${OBJ}" ]] || fail "no object file survived to corrupt"
echo "flipped bits, not a simdstore entry" >"${OBJ}"

echo "durability-smoke: gen 3 with a corrupt entry and -job-deadline"
start_daemon -job-deadline 500ms

# The corrupt entry must never be served: the resubmission quarantines
# it, re-executes, and lands on the same canonical bytes.
CODE=$(submit "${SPEC_DONE}" "${WORK}/sub4.json")
[[ "${CODE}" == 202 ]] || fail "corrupt-entry resubmit returned HTTP ${CODE} (want 202 re-run, got a hit?)"
ID4=$(jq -r .id "${WORK}/sub4.json")
wait_state "${ID4}" done
curl -sf "${BASE}/jobs/${ID4}/report" >"${WORK}/report4.json"
cmp -s "${WORK}/report1.json" "${WORK}/report4.json" \
  || fail "recomputed report differs from the pre-corruption original"
curl -sf "${BASE}/metrics" >"${WORK}/metrics3.txt"
V=$(metric 'simd_store_quarantined_total' "${WORK}/metrics3.txt") || fail "/metrics missing quarantine counter"
[[ "${V}" -ge 1 ]] || fail "simd_store_quarantined_total=${V} (want >=1)"
QUARANTINED=$(find "${STORE}/quarantine" -type f) || fail "no quarantine directory"
[[ -n "${QUARANTINED}" ]] || fail "quarantine directory is empty"
echo "durability-smoke: corrupt entry quarantined and recomputed identically"

# Wall-clock deadline: an over-budget job fails and says why. (The
# journal-recovered slow job from gen 2 fails the same way here.)
CODE=$(submit "${SPEC_SLOW/\"seed\":7/\"seed\":8}" "${WORK}/sub5.json")
[[ "${CODE}" == 202 ]] || fail "deadline-phase submit returned HTTP ${CODE}"
ID5=$(jq -r .id "${WORK}/sub5.json")
wait_state "${ID5}" failed
curl -sf "${BASE}/jobs/${ID5}" | jq -e '.error | contains("deadline")' >/dev/null \
  || fail "deadline failure does not say so: $(curl -s "${BASE}/jobs/${ID5}")"
curl -sf "${BASE}/metrics" >"${WORK}/metrics4.txt"
V=$(metric 'simd_job_deadline_exceeded_total' "${WORK}/metrics4.txt") || fail "/metrics missing deadline counter"
[[ "${V}" -ge 1 ]] || fail "simd_job_deadline_exceeded_total=${V} (want >=1)"
echo "durability-smoke: wall-clock deadline enforced"

# --- graceful shutdown ------------------------------------------------
graceful_stop "${SIMD_PID}"
echo "durability-smoke: PASS"
