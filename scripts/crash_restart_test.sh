#!/usr/bin/env bash
# Crash/restart smoke test for evocatd's WAL, driven entirely over HTTP with
# curl (the same walkthrough docs/server.md documents):
#
#   1. reference run: an uninterrupted daemon executes the probe job;
#   2. crash run: a WAL-backed daemon takes a forever-job plus the probe job
#      and is SIGKILLed with both unfinished;
#   3. recovery run: a new daemon on the same WAL re-queues both under their
#      original ids; the forever-job is canceled, the probe job completes and
#      its scores must be byte-identical to the reference (specs embed their
#      seeds, so a crash costs wall-clock, never changes the answer);
#   4. a garbage tail is appended to the WAL and the daemon must still boot,
#      quarantining the damage.
#
# Usage: scripts/crash_restart_test.sh [path/to/evocatd]   (default: build/evocatd)

set -eu
cd "$(dirname "$0")/.."

EVOCATD=${1:-build/evocatd}
[ -x "$EVOCATD" ] || { echo "evocatd binary not found at $EVOCATD (build first)"; exit 2; }
command -v curl >/dev/null || { echo "curl is required"; exit 2; }
command -v python3 >/dev/null || { echo "python3 is required"; exit 2; }

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

wal="$workdir/jobs.wal"
probe_spec="$workdir/probe.json"
cat > "$probe_spec" <<'EOF'
{
  "name": "crash-probe",
  "source": {
    "kind": "synthetic",
    "profile": {
      "name": "tiny",
      "num_records": 60,
      "attributes": [
        {"name": "a0", "kind": "ordinal", "cardinality": 7},
        {"name": "a1", "kind": "nominal", "cardinality": 5},
        {"name": "a2", "kind": "nominal", "cardinality": 9}
      ],
      "protected_attributes": ["a0", "a1", "a2"]
    }
  },
  "methods": [
    {"name": "microaggregation", "grid": {"k": [3, 6]}},
    {"name": "pram", "grid": {"retain": [0.7, 0.4]}}
  ],
  "measures": {"prl_em_iterations": 10},
  "ga": {"generations": 12},
  "seeds": {"master": 404}
}
EOF
# The blocker pins the single worker forever, guaranteeing both jobs are
# still unfinished when the SIGKILL lands. Its budget is near INT32_MAX, so
# the daemon must run (and replay) a job of that size without allocating for
# it up front.
blocker_spec="$workdir/blocker.json"
python3 - "$probe_spec" "$blocker_spec" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
spec["name"] = "blocker"
spec["ga"]["generations"] = 2000000000
json.dump(spec, open(sys.argv[2], "w"))
EOF

start_daemon() {  # args: extra evocatd flags; sets $port and $daemon_pid
  local log="$workdir/evocatd.$RANDOM.log"
  "$EVOCATD" --port=0 "$@" > "$log" 2>&1 &
  daemon_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$log")
    [ -n "$port" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died on start:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -n "$port" ] || { echo "daemon never reported its port:"; cat "$log"; exit 1; }
  for _ in $(seq 1 100); do
    curl -sf "localhost:$port/healthz" > /dev/null && return 0
    sleep 0.1
  done
  echo "daemon never became healthy"; exit 1
}

stop_daemon() {
  kill "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
}

jget() {  # jget <json-file> <python-expression over d>
  python3 -c "import json,sys; d=json.load(open(sys.argv[1])); print($2)" "$1"
}

poll_until() {  # poll_until <port> <job-id> <state>
  for _ in $(seq 1 600); do
    state=$(curl -s "localhost:$1/v1/jobs/$2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    [ "$state" = "$3" ] && return 0
    case "$state" in done|failed|canceled) echo "job $2 ended as $state, wanted $3"; return 1 ;; esac
    sleep 0.1
  done
  echo "job $2 never reached $3 (last: $state)"; return 1
}

# Scores + winning origin identify the run; timing fields legitimately vary.
fingerprint() {  # fingerprint <result-json-file>
  jget "$1" 'json.dumps({"scores": d["final_scores"], "origin": d["best"]["origin"], "evaluations": d["evaluations"]}, sort_keys=True)'
}

echo "== 1. reference run (no crash) =="
start_daemon --threads=1
curl -s -X POST "localhost:$port/v1/jobs" --data-binary "@$probe_spec" > /dev/null
poll_until "$port" job-000001 done
curl -s "localhost:$port/v1/jobs/job-000001/result?best_csv=0" > "$workdir/reference.json"
reference=$(fingerprint "$workdir/reference.json")
stop_daemon
echo "   reference: $reference"

echo "== 2. crash run: SIGKILL with both jobs unfinished =="
start_daemon --threads=1 --wal="$wal"
curl -s -X POST "localhost:$port/v1/jobs" --data-binary "@$blocker_spec" > "$workdir/submit1.json"
curl -s -X POST "localhost:$port/v1/jobs" --data-binary "@$probe_spec" > "$workdir/submit2.json"
[ "$(jget "$workdir/submit1.json" 'd["id"]')" = "job-000001" ]
[ "$(jget "$workdir/submit2.json" 'd["id"]')" = "job-000002" ]
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "   killed mid-run; WAL: $(wc -c < "$wal") bytes"

echo "== 3. restart on the same WAL: recover, finish, compare =="
start_daemon --threads=1 --wal="$wal"
curl -s "localhost:$port/healthz" > "$workdir/health.json"
recovered=$(jget "$workdir/health.json" 'd["wal"]["recovered_jobs"]')
[ "$recovered" = "2" ] || { echo "expected 2 recovered jobs, got $recovered"; exit 1; }
[ "$(curl -s "localhost:$port/v1/jobs/job-000002" | python3 -c 'import json,sys; print(json.load(sys.stdin)["recovered"])')" = "True" ]
curl -s -X POST "localhost:$port/v1/jobs/job-000001/cancel" > /dev/null
poll_until "$port" job-000002 done
curl -s "localhost:$port/v1/jobs/job-000002/result?best_csv=0" > "$workdir/recovered.json"
recovered_fp=$(fingerprint "$workdir/recovered.json")
stop_daemon
echo "   recovered: $recovered_fp"
if [ "$reference" != "$recovered_fp" ]; then
  echo "FAIL: recovered artifacts differ from the uninterrupted run"
  exit 1
fi

echo "== 4. corrupt WAL tail: boot, quarantine, report =="
printf 'R submit job-000099 - 4096 00000000\n{"name": "torn' >> "$wal"
start_daemon --threads=1 --wal="$wal"
curl -s "localhost:$port/healthz" > "$workdir/health2.json"
quarantined=$(jget "$workdir/health2.json" 'd["wal"]["quarantined_bytes"]')
[ "$quarantined" -gt 0 ] || { echo "expected quarantined bytes, got $quarantined"; exit 1; }
[ -s "$wal.quarantine" ] || { echo "quarantine file missing"; exit 1; }
stop_daemon
echo "   quarantined $quarantined bytes to jobs.wal.quarantine"

echo "crash/restart test OK"
