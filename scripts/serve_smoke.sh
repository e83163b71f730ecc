#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the serving-tier fast path.
#
# Builds sidrd, registers a dataset, and runs the same query twice:
# the first submission must execute cold, the second must be a recorded
# result-cache hit (snapshot result_cache_hit=true, metrics counter
# incremented) whose result bytes are identical to the first's, and
# whose stream — sent from the cache entry's encoded bytes, as identity
# and as one hand-assembled gzip member — is the cold run's. Also checks
# gzip responses decode to the identity bytes and that a tenant quota
# breach returns 429 with detail "tenant-quota".
#
# Usage: scripts/serve_smoke.sh [port]
set -euo pipefail

PORT="${1:-7191}"
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
(cd "$ROOT" && go build -o "$BIN" ./cmd/sidrd ./cmd/datagen)

echo "== dataset"
"$BIN/datagen" -out "$DATA/temperature.ncf" -var temperature \
  -shape 90,20,20 -kind temperature -seed 1
"$BIN/datagen" -out "$DATA/wind.ncf" -var windspeed \
  -shape 365,50,40 -kind windspeed -seed 2

echo "== launch sidrd (result cache on, tenant quota for acme, 1 job slot)"
"$BIN/sidrd" -addr "127.0.0.1:${PORT}" -data "$DATA" -max-jobs 1 \
  -result-cache-bytes $((16 << 20)) -tenant 'acme=1:2' \
  >"$WORK/sidrd.log" 2>&1 &
PIDS+=($!)

for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

QUERY='avg temperature[0,0,0 : 90,20,20] es {9,4,4}'
submit() { # submit -> prints "<id> <result_cache_hit>"
  curl -fsS "$BASE/v1/query" -H 'Content-Type: application/json' \
    -d "{\"dataset\":\"temperature\",\"query\":\"$QUERY\",\"reducers\":4}" \
    | python3 -c 'import json,sys; s=json.load(sys.stdin); print(s["id"], str(s.get("result_cache_hit", False)).lower())'
}
wait_done() { # wait_done <job-id>
  for _ in $(seq 1 200); do
    st=$(curl -fsS "$BASE/v1/jobs/$1" \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    [ "$st" = "done" ] && return 0
    case "$st" in failed|cancelled) echo "FAIL: job $1 state $st"; exit 1;; esac
    sleep 0.05
  done
  echo "FAIL: job $1 never finished"; exit 1
}
result_of() { # result_of <job-id> -> canonical JSON of the result field
  curl -fsS "$BASE/v1/jobs/$1" | python3 -c '
import json, sys
print(json.dumps(json.load(sys.stdin)["result"], sort_keys=True))'
}

echo "== cold run"
read -r JOB1 HIT1 <<<"$(submit)"
[ "$HIT1" = "false" ] || { echo "FAIL: first submission claimed a cache hit"; exit 1; }
wait_done "$JOB1"
result_of "$JOB1" >"$WORK/first.json"

echo "== repeat run (must be a recorded cache hit, byte-identical)"
read -r JOB2 HIT2 <<<"$(submit)"
[ "$HIT2" = "true" ] || { echo "FAIL: repeat submission not marked result_cache_hit"; exit 1; }
wait_done "$JOB2"
result_of "$JOB2" >"$WORK/second.json"
if ! cmp -s "$WORK/first.json" "$WORK/second.json"; then
  echo "FAIL: cached result bytes differ from the cold run"
  diff "$WORK/first.json" "$WORK/second.json" | head -5
  exit 1
fi
curl -fsS "$BASE/metrics" | grep -q '^sidrd_resultcache_hits_total 1' \
  || { echo "FAIL: sidrd_resultcache_hits_total != 1"; exit 1; }
echo "   cache hit recorded, result bytes identical"

echo "== the hit's stream: spliced from cached bytes, identity and one gzip member"
stream_of() { # stream_of <job-id> <curl args...> -> the stream's body on stdout
  local id="$1"; shift
  curl -fsS "$@" "$BASE/v1/jobs/$id/stream"
}
stream_of "$JOB2" -H 'Accept-Encoding: identity' >"$WORK/hit.ndjson"
stream_of "$JOB2" --compressed >"$WORK/hit.gunzip.ndjson"
cmp -s "$WORK/hit.ndjson" "$WORK/hit.gunzip.ndjson" \
  || { echo "FAIL: the hit's gzip stream decodes differently from its identity stream"; exit 1; }
# zlib's view of the raw body: one member, CRC-32 and ISIZE right.
stream_of "$JOB2" -H 'Accept-Encoding: gzip' >"$WORK/hit.ndjson.gz"
gzip -t "$WORK/hit.ndjson.gz" \
  || { echo "FAIL: gzip -t rejects the hit's gzip stream"; exit 1; }
gzip -dc "$WORK/hit.ndjson.gz" | cmp -s - "$WORK/hit.ndjson" \
  || { echo "FAIL: gzip -d of the hit's stream differs from its identity stream"; exit 1; }
# Under the cold job's ID the hit's stream is the cold job's, byte for byte.
stream_of "$JOB1" -H 'Accept-Encoding: identity' >"$WORK/cold.ndjson"
sed "s/$JOB2/$JOB1/g" "$WORK/hit.ndjson" | cmp -s - "$WORK/cold.ndjson" \
  || { echo "FAIL: the hit's stream differs from the cold run's beyond the job ID"; exit 1; }
[ "$(grep -c '"type":"partial"' "$WORK/hit.ndjson")" = 4 ] && tail -1 "$WORK/hit.ndjson" | grep -q '"type":"done"' \
  || { echo "FAIL: the hit's stream is not 4 partials and done"; exit 1; }
curl -fsS "$BASE/metrics" | grep -q '^sidrd_resultcache_encodes_total 1$' \
  || { echo "FAIL: the entry was not encoded exactly once for three hit streams"; exit 1; }
echo "   hit stream == cold stream under the job ID; gzip member valid and identical after decode"

echo "== gzip fetch decodes to the identity bytes"
curl -fsS -H 'Accept-Encoding: identity' "$BASE/v1/jobs/$JOB1" >"$WORK/plain.json"
curl -fsS -H 'Accept-Encoding: gzip' "$BASE/v1/jobs/$JOB1" --compressed >"$WORK/gunzip.json"
cmp -s "$WORK/plain.json" "$WORK/gunzip.json" \
  || { echo "FAIL: gzip response decodes differently"; exit 1; }
echo "   gzip payload identical after decode"

echo "== tenant quota: a second in-flight acme job is a 429 tenant-quota"
# Occupy the single job slot with a default-tenant median over the whole
# wind file (730k points, one keyblock), so acme's next job queues —
# queued jobs count toward the quota — and its job after that breaches
# it. One curl process sends the three submissions back to back on one
# connection: the slot-holder runs for ~0.1 s, which separate
# curl + python invocations can outlast.
SLOW='median windspeed[0,0,0 : 365,50,40] es {365,50,40}'
code=$(curl -s -o "$WORK/hold.json" "$BASE/v1/query" \
  -H 'Content-Type: application/json' \
  -d "{\"dataset\":\"wind\",\"query\":\"$SLOW\",\"reducers\":1}" \
  --next -s -o "$WORK/ajob.json" "$BASE/v1/query" \
  -H 'Content-Type: application/json' -H 'X-SIDR-Tenant: acme' \
  -d "{\"dataset\":\"temperature\",\"query\":\"min temperature[0,0,0 : 90,20,20] es {9,4,4}\",\"reducers\":4}" \
  --next -s -o "$WORK/quota.json" -w '%{http_code}' "$BASE/v1/query" \
  -H 'Content-Type: application/json' -H 'X-SIDR-Tenant: acme' \
  -d "{\"dataset\":\"temperature\",\"query\":\"sum temperature[0,0,0 : 90,20,20] es {9,4,4}\",\"reducers\":4}")
HOLD=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/hold.json")
AJOB=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/ajob.json")
[ "$code" = "429" ] || { echo "FAIL: over-quota submit returned $code, want 429"; exit 1; }
grep -q '"tenant-quota"' "$WORK/quota.json" \
  || { echo "FAIL: 429 body lacks detail tenant-quota: $(cat "$WORK/quota.json")"; exit 1; }
wait_done "$HOLD"
wait_done "$AJOB"
echo "   quota breach rejected with 429 tenant-quota"

echo "PASS: repeat query served from cache byte-identically; gzip and tenant quotas behave"
