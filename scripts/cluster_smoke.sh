#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of the distributed runtime.
#
# Builds the binaries, generates a quickstart-shaped dataset, launches a
# clustered sidrd plus two sidr-worker processes, runs one query through
# POST /v1/query with {"cluster":true}, and asserts the streamed result
# is identical to the in-process engine's answer for the same request.
#
# Usage: scripts/cluster_smoke.sh [port]
set -euo pipefail

PORT="${1:-7171}"
BASE="http://127.0.0.1:${PORT}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
DATA="$WORK/data"
mkdir -p "$BIN" "$DATA"

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
(cd "$ROOT" && go build -o "$BIN" ./cmd/sidrd ./cmd/sidr-worker ./cmd/datagen)

echo "== datasets (quickstart shape + join inputs)"
"$BIN/datagen" -out "$DATA/temperature.ncf" -var temperature \
  -shape 365,50,40 -kind temperature -seed 1
"$BIN/datagen" -out "$DATA/left.ncf" -var a -shape 64,48 -kind integers -seed 11
"$BIN/datagen" -out "$DATA/right.ncf" -var b -shape 64,48 -kind zipf -skew 1.4 -seed 23

echo "== launch sidrd (clustered, 3-node namespace) + 3 workers"
"$BIN/sidrd" -addr "127.0.0.1:${PORT}" -data "$DATA" -cluster \
  -nodes node1,node2,node3 \
  >"$WORK/sidrd.log" 2>&1 &
PIDS+=($!)
WPIDS=()
for i in 1 2 3; do
  "$BIN/sidr-worker" -coordinator "$BASE" -name "smoke-w$i" -node "node$i" \
    -spill-dir "$WORK/spill$i" >"$WORK/worker$i.log" 2>&1 &
  PIDS+=($!)
  WPIDS+=($!)
done

metric() { # metric <base-url> <name> -> prints its value (0 when unset)
  curl -fsS "$1/metrics" | awk -v m="$2" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

echo "== wait for daemon + worker registration"
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null
for _ in $(seq 1 100); do
  alive=$(curl -fsS "$BASE/v1/cluster/workers" \
    | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin)["workers"] if w["alive"]))')
  [ "$alive" -ge 3 ] && break
  sleep 0.1
done
[ "$alive" -ge 3 ] || { echo "FAIL: only $alive workers registered"; exit 1; }
echo "   $alive workers alive"

QUERY='avg temperature[0,0,0 : 364,50,40] es {7,5,1}'
submit() { # submit <cluster-bool> [query] -> prints job id
  local q="${2:-$QUERY}"
  curl -fsS "$BASE/v1/query" -H 'Content-Type: application/json' \
    -d "{\"dataset\":\"temperature\",\"query\":\"$q\",\"engine\":\"sidr\",\"reducers\":4,\"cluster\":$1}" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}
result_of() { # result_of <job-id> -> prints the done event's rows (keys, per-key counts, flat values)
  curl -fsSN "$BASE/v1/jobs/$1/stream" | python3 -c '
import json, sys
for line in sys.stdin:
    ev = json.loads(line)
    if ev["type"] == "done":
        r = ev["result"]
        print(json.dumps({"keys": r["keys"], "counts": r.get("counts"), "values": r["values"], "rows": r["rows"]}, sort_keys=True))
        sys.exit(0)
    if ev["type"] in ("failed", "cancelled"):
        sys.exit(f"job {ev}")
sys.exit("stream ended without a terminal event")'
}

echo "== clustered run"
CJOB=$(submit true)
result_of "$CJOB" >"$WORK/cluster.json"
echo "   job $CJOB done ($(python3 -c "import json;print(json.load(open('$WORK/cluster.json'))['rows'])") rows)"

echo "== in-process run"
LJOB=$(submit false)
result_of "$LJOB" >"$WORK/local.json"

echo "== compare"
if ! cmp -s "$WORK/cluster.json" "$WORK/local.json"; then
  echo "FAIL: clustered result differs from in-process result"
  diff "$WORK/cluster.json" "$WORK/local.json" | head -5
  exit 1
fi

mc=$(curl -fsS "$BASE/metrics" | grep -E '^sidrd_(cluster_tasks_dispatched_total|shuffle_(connections|requests|batch_fallbacks)_total|cluster_dispatch_(local|remote)_total)' || true)
echo "$mc" | sed 's/^/   /'
echo "$mc" | grep -q 'sidrd_shuffle_connections_total' || { echo "FAIL: no shuffle metrics"; exit 1; }
echo "$mc" | grep -q 'sidrd_shuffle_batch_fallbacks_total' || { echo "FAIL: sidrd_shuffle_batch_fallbacks_total not exported"; exit 1; }
# One shuffle path: each request carries a (reduce, worker) group, so
# requests stay below the Σ|I_ℓ| connection count.
[ "$(metric "$BASE" sidrd_shuffle_requests_total)" -lt "$(metric "$BASE" sidrd_shuffle_connections_total)" ] \
  || { echo "FAIL: shuffle requests not below connections — batching collapsed nothing"; exit 1; }
# One 5.8MB file fits one 128MB block replicated to all 3 nodes, so
# every hinted dispatch must have found a node-local worker.
[ "$(metric "$BASE" sidrd_cluster_dispatch_local_total)" -gt 0 ] \
  || { echo "FAIL: no dispatch used block locality"; exit 1; }

echo "== structural index: registration built it, selective filter prunes through it"
curl -fsS "$BASE/v1/datasets" | python3 -c '
import json, sys
for ds in json.load(sys.stdin):
    if ds["name"] != "temperature":
        continue
    v = ds["variables"][0]
    status, blocks, nbytes = v["index_status"], v["index_blocks"], v["index_bytes"]
    if status not in ("built", "loaded"):
        sys.exit("index_status = " + status)
    if nbytes <= 0 or blocks <= 0:
        sys.exit("implausible index metadata: " + json.dumps(v))
    print("   index %s: %d blocks, %dB, %d default splits" % (status, blocks, nbytes, v["splits"]))
    sys.exit(0)
sys.exit("temperature dataset not listed")'
# Only mid-year days exceed 25°C in the seeded temperature data, so the
# predicate is satisfiable in a minority of leading-dimension splits.
FILTER_QUERY='filter_gt temperature[0,0,0 : 365,50,40] es {5,5,8} param 25'
FCJOB=$(submit true "$FILTER_QUERY")
result_of "$FCJOB" >"$WORK/filter_cluster.json"
FLJOB=$(submit false "$FILTER_QUERY")
result_of "$FLJOB" >"$WORK/filter_local.json"
if ! cmp -s "$WORK/filter_cluster.json" "$WORK/filter_local.json"; then
  echo "FAIL: pruned clustered filter differs from pruned in-process filter"
  diff "$WORK/filter_cluster.json" "$WORK/filter_local.json" | head -5
  exit 1
fi
echo "   filter results identical ($(python3 -c "import json;print(json.load(open('$WORK/filter_cluster.json'))['rows'])") rows)"
sx=$(curl -fsS "$BASE/metrics" | grep -E '^sidrd_sidx_' || true)
echo "$sx" | sed 's/^/   /'
echo "$sx" | grep -q 'sidrd_sidx_hits_total [1-9]' || { echo "FAIL: index never consulted"; exit 1; }
echo "$sx" | grep -q 'sidrd_sidx_pruned_splits_total [1-9]' || { echo "FAIL: index never pruned a split"; exit 1; }

echo "== structural join: two datasets, zipf-skewed side B, clustered vs in-process"
curl -fsS "$BASE/v1/datasets" | python3 -c '
import json, sys
names = {ds["name"] for ds in json.load(sys.stdin)}
missing = {"left", "right"} - names
if missing:
    sys.exit("join datasets not registered: %s" % sorted(missing))'
JOIN_QUERY='join javg a[0,0 : 64,48] es {8,8} with b[0,0 : 64,48] es {8,8}'
submit_join() { # submit_join <cluster-bool> -> prints job id
  curl -fsS "$BASE/v1/query" -H 'Content-Type: application/json' \
    -d "{\"dataset\":\"left\",\"dataset2\":\"right\",\"query\":\"$JOIN_QUERY\",\"engine\":\"sidr\",\"reducers\":4,\"max_skew\":16,\"cluster\":$1}" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}
JCJOB=$(submit_join true)
result_of "$JCJOB" >"$WORK/join_cluster.json"
JLJOB=$(submit_join false)
result_of "$JLJOB" >"$WORK/join_local.json"
if ! cmp -s "$WORK/join_cluster.json" "$WORK/join_local.json"; then
  echo "FAIL: clustered join differs from in-process join"
  diff "$WORK/join_cluster.json" "$WORK/join_local.json" | head -5
  exit 1
fi
echo "   join results identical ($(python3 -c "import json;print(json.load(open('$WORK/join_cluster.json'))['rows'])") rows)"
curl -fsS "$BASE/v1/jobs/$JCJOB" | python3 -c '
import json, sys
v = json.load(sys.stdin)
if v.get("dataset2") != "right":
    sys.exit("job view dataset2 = %r" % v.get("dataset2"))
s = v.get("skew")
if not s or s.get("keyblocks", 0) <= 0:
    sys.exit("job view has no skew summary: %r" % s)
print("   skew: %d keyblocks, max/mean %.3f, gini %.3f" %
      (s["keyblocks"], s["max_over_mean"], s["gini"]))'
js=$(curl -fsS "$BASE/metrics" | grep -E '^sidrd_job_skew_' || true)
echo "$js" | sed 's/^/   /'
echo "$js" | grep -q 'sidrd_job_skew_keyblocks [1-9]' || { echo "FAIL: join skew gauges unset"; exit 1; }

echo "== chaos: SIGKILL one worker mid-job"
KJOB=$(submit true)
curl -fsSN "$BASE/v1/jobs/$KJOB/stream" >"$WORK/kill_stream.ndjson" &
STREAM_PID=$!
# Wait for the first committed keyblock, then kill worker 3 outright: its
# spills vanish mid-shuffle and its running Map tasks die with it.
for _ in $(seq 1 200); do
  grep -q '"type": *"partial"' "$WORK/kill_stream.ndjson" 2>/dev/null && break
  sleep 0.05
done
kill -9 "${WPIDS[2]}" 2>/dev/null || true
echo "   killed worker smoke-w3 (pid ${WPIDS[2]})"
wait "$STREAM_PID" || { echo "FAIL: stream for $KJOB aborted"; exit 1; }
python3 -c '
import json, sys
for line in open(sys.argv[1]):
    ev = json.loads(line)
    if ev["type"] == "done":
        r = ev["result"]
        print(json.dumps({"keys": r["keys"], "counts": r.get("counts"), "values": r["values"], "rows": r["rows"]}, sort_keys=True))
        sys.exit(0)
    if ev["type"] in ("failed", "cancelled"):
        sys.exit(f"job {ev}")
sys.exit("stream ended without a terminal event")' "$WORK/kill_stream.ndjson" >"$WORK/kill.json"
if ! cmp -s "$WORK/kill.json" "$WORK/local.json"; then
  echo "FAIL: post-kill result differs from in-process result"
  diff "$WORK/kill.json" "$WORK/local.json" | head -5
  exit 1
fi
reexec=$(curl -fsS "$BASE/metrics" | grep -E '^sidrd_cluster_reexecuted_total' || true)
echo "   ${reexec:-sidrd_cluster_reexecuted_total 0 (job outran the kill)}"
echo "   post-kill result identical to in-process engine"

echo "== drain: SIGTERM a worker mid-job; it serves its spills until they are consumed, zero re-executions"
# The drain leg gets its own daemon whose shuffle fetches are chaos-
# delayed 1.5s: the drained worker must keep serving its spills until
# the delayed reduce has fetched them, and only then exit. A plain
# daemon's jobs finish in ~0.3s — faster than any process can drain.
# -exec-workers 4: with three workers, the drain target only receives a
# Map when at least three dispatches are in flight at once, which the
# GOMAXPROCS default does not give on a two-CPU machine.
DPORT=$((PORT + 1))
DBASE="http://127.0.0.1:${DPORT}"
"$BIN/sidrd" -addr "127.0.0.1:${DPORT}" -data "$DATA" -cluster -exec-workers 4 \
  -nodes node1,node2 \
  -chaos "seed=11,match=/v1/shuffle/,delay=1.0:1500ms" \
  >"$WORK/sidrd-drain.log" 2>&1 &
PIDS+=($!)
for i in 1 2; do
  "$BIN/sidr-worker" -coordinator "$DBASE" -name "smoke-b$i" -node "node$i" \
    -spill-dir "$WORK/spill-b$i" >"$WORK/worker-b$i.log" 2>&1 &
  PIDS+=($!)
done
for _ in $(seq 1 100); do
  curl -fsS "$DBASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
# One keyblock spanning every split: the single reduce only fetches
# after the whole map phase, well past the SIGTERM.
DRAIN_QUERY='avg temperature[0,0,0 : 364,50,40] es {365,50,40}'
DLJOB=$(submit false "$DRAIN_QUERY")
result_of "$DLJOB" >"$WORK/drain_local.json"
DNAME="smoke-d"
"$BIN/sidr-worker" -coordinator "$DBASE" -name "$DNAME" -node node2 \
  -spill-dir "$WORK/spill-d" -heartbeat 50ms \
  >"$WORK/worker-d.log" 2>&1 &
DPID=$!
PIDS+=($DPID)
for _ in $(seq 1 100); do
  curl -fsS "$DBASE/v1/cluster/workers" | grep -q "\"$DNAME\"" && break
  sleep 0.05
done
reexec_before=$(metric "$DBASE" sidrd_cluster_reexecuted_total)
DJOB=$(curl -fsS "$DBASE/v1/query" -H 'Content-Type: application/json' \
  -d "{\"dataset\":\"temperature\",\"query\":\"$DRAIN_QUERY\",\"engine\":\"sidr\",\"reducers\":4,\"cluster\":true}" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -fsSN "$DBASE/v1/jobs/$DJOB/stream" >"$WORK/drain_stream.ndjson" &
STREAM_PID=$!
# SIGTERM as soon as the target has committed its first Map: it refuses
# further dispatches, serves its spills to the delayed reduce, is
# released once that reduce has consumed them, and exits.
for _ in $(seq 1 400); do
  curl -fsS "$DBASE/v1/cluster/workers" | python3 -c '
import json, sys
for w in json.load(sys.stdin)["workers"]:
    if w["name"] == sys.argv[1] and w.get("maps_done", 0) >= 1:
        sys.exit(0)
sys.exit(1)' "$DNAME" 2>/dev/null && break
  sleep 0.02
done
kill -TERM "$DPID"
wait "$STREAM_PID" || { echo "FAIL: stream for $DJOB aborted"; exit 1; }
python3 -c '
import json, sys
for line in open(sys.argv[1]):
    ev = json.loads(line)
    if ev["type"] == "done":
        r = ev["result"]
        print(json.dumps({"keys": r["keys"], "counts": r.get("counts"), "values": r["values"], "rows": r["rows"]}, sort_keys=True))
        sys.exit(0)
    if ev["type"] in ("failed", "cancelled"):
        sys.exit(f"job {ev}")
sys.exit("stream ended without a terminal event")' "$WORK/drain_stream.ndjson" >"$WORK/drain.json"
if ! cmp -s "$WORK/drain.json" "$WORK/drain_local.json"; then
  echo "FAIL: post-drain result differs from in-process result"
  diff "$WORK/drain.json" "$WORK/drain_local.json" | head -5
  exit 1
fi
# Drain is not death: nothing may have been re-executed.
reexec_after=$(metric "$DBASE" sidrd_cluster_reexecuted_total)
if [ "$reexec_after" != "$reexec_before" ]; then
  echo "FAIL: drain caused re-executions ($reexec_before -> $reexec_after)"
  exit 1
fi
# The drained worker must actually exit (clean deregistration, not a hang).
for _ in $(seq 1 400); do
  kill -0 "$DPID" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$DPID" 2>/dev/null; then
  echo "FAIL: drained worker $DNAME (pid $DPID) never exited"
  exit 1
fi
grep -q 'drained: released by coordinator' "$WORK/worker-d.log" \
  || { echo "FAIL: $DNAME exited without being released"; cat "$WORK/worker-d.log"; exit 1; }
echo "   $DNAME drained and exited; result identical, re-executions unchanged ($reexec_after)"

echo "PASS: clustered results identical to in-process engine (with and without worker loss)"
