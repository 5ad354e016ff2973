#!/usr/bin/env bash
# Observability smoke: the full stack as separate processes — two dgsd
# site servers with -metrics listeners, one dgsgw gateway fronting them
# — exercised end to end. Asserts:
#   1. GET /metrics serves Prometheus text on the gateway AND a daemon;
#   2. the gateway exposition agrees with its own /stats counters;
#   3. a {"trace":true} query returns a complete multi-site span tree;
#   4. the daemons counted the TRACE frames they shipped;
#   5. the daemons restored the repeated query's engines from prepared
#      state (dgsd_engine_restores_total);
#   6. pprof answers on the daemon's metrics listener.
# This is the CI-enforced form of docs/OBSERVABILITY.md.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${DGS_OBS_SMOKE_PORT1:-17451}
PORT2=${DGS_OBS_SMOKE_PORT2:-17452}
MPORT1=${DGS_OBS_SMOKE_MPORT1:-17453}
MPORT2=${DGS_OBS_SMOKE_MPORT2:-17454}
GWPORT=${DGS_OBS_SMOKE_GWPORT:-17455}
BIN=bin

mkdir -p "$BIN"
go build -o "$BIN/dgsd" ./cmd/dgsd
go build -o "$BIN/dgsgw" ./cmd/dgsgw

"$BIN/dgsd" -listen "127.0.0.1:$PORT1" -metrics "127.0.0.1:$MPORT1" -quiet &
D1=$!
"$BIN/dgsd" -listen "127.0.0.1:$PORT2" -metrics "127.0.0.1:$MPORT2" -quiet &
D2=$!
GW=
trap 'kill $D1 $D2 ${GW:-} 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT1") 2>/dev/null && (exec 3<>"/dev/tcp/127.0.0.1/$PORT2") 2>/dev/null; then
    break
  fi
  sleep 0.1
done

"$BIN/dgsgw" -listen "127.0.0.1:$GWPORT" -connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  -gen chain -nodes 400 -frags 4 -slow-query 1ns -quiet &
GW=$!

BASE="http://127.0.0.1:$GWPORT"
up=0
for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "obs smoke: gateway never became healthy" >&2
  exit 1
fi

Q='{"pattern":"node a A\nnode b B\nedge a b\nedge b a"}'
QT='{"pattern":"node a A\nnode b B\nedge a b\nedge b a","trace":true}'

echo "== traffic: one miss, one hit, one traced query"
curl -fsS "$BASE/query" -d "$Q" >/dev/null
curl -fsS "$BASE/query" -d "$Q" | grep -q '"cached": true' || { echo "second query did not hit" >&2; exit 1; }
TR=$(curl -fsS "$BASE/query" -d "$QT")
echo "$TR" | grep -q '"trace"'           || { echo "traced query returned no trace" >&2; echo "$TR" >&2; exit 1; }
echo "$TR" | grep -q '"complete": true'  || { echo "trace is incomplete on an all-v5 deployment" >&2; echo "$TR" >&2; exit 1; }
echo "$TR" | grep -q '"site": -1'        || { echo "trace lacks the coordinator's spans" >&2; exit 1; }
echo "$TR" | grep -q '"site": 0'         || { echo "trace lacks worker-site spans" >&2; exit 1; }
echo "$TR" | grep -q '"cached": false'   || { echo "traced query must bypass the cache" >&2; exit 1; }

echo "== gateway /metrics vs /stats"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | head -5
echo "$METRICS" | grep -q '^# TYPE dgs_gw_queries_total counter' || { echo "exposition lacks TYPE line" >&2; exit 1; }
STATS=$(curl -fsS "$BASE/stats")
queries=$(echo "$STATS"   | grep -o '"queries": [0-9]*'  | grep -o '[0-9]*')
hits=$(echo "$STATS"      | grep -o '"hits": [0-9]*'     | grep -o '[0-9]*')
mq=$(echo "$METRICS" | awk '$1 == "dgs_gw_queries_total" {print $2}')
mh=$(echo "$METRICS" | awk '$1 == "dgs_gw_cache_hits_total" {print $2}')
[ "$mq" = "$queries" ] || { echo "metrics queries=$mq but stats queries=$queries" >&2; exit 1; }
[ "$mh" = "$hits" ]    || { echo "metrics hits=$mh but stats hits=$hits" >&2; exit 1; }
# The deployment's registry is merged onto the same page.
echo "$METRICS" | grep -q '^dgs_failovers_total '        || { echo "merged page lacks dgs_failovers_total" >&2; exit 1; }
echo "$METRICS" | grep -q '^dgs_net_frames_out_total '   || { echo "merged page lacks transport metrics" >&2; exit 1; }
# The slow-query log threshold (1ns) makes every query slow.
slow=$(echo "$METRICS" | awk '$1 == "dgs_gw_slow_queries_total" {print $2}')
[ "${slow:-0}" -ge 1 ] || { echo "slow-query counter never moved (got '$slow')" >&2; exit 1; }

echo "== daemon /metrics + pprof"
DM=$(curl -fsS "http://127.0.0.1:$MPORT1/metrics"; curl -fsS "http://127.0.0.1:$MPORT2/metrics")
echo "$DM" | grep -q '^# TYPE dgsd_sessions_total counter' || { echo "daemon exposition lacks dgsd_sessions_total" >&2; exit 1; }
traces=$(echo "$DM" | awk '$1 == "dgsd_traces_total" {s += $2} END {print s+0}')
[ "$traces" -ge 1 ] || { echo "daemons shipped no TRACE frames (dgsd_traces_total=$traces)" >&2; exit 1; }
# The traced query re-evaluates the first one's pattern: its sites restore
# the engines the first evaluation filed.
restores=$(echo "$DM" | awk '$1 == "dgsd_engine_restores_total" {s += $2} END {print s+0}')
[ "$restores" -ge 1 ] || { echo "daemons restored no engine (dgsd_engine_restores_total=$restores)" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$MPORT1/debug/pprof/cmdline" >/dev/null || { echo "pprof not answering on the daemon metrics listener" >&2; exit 1; }

echo "obs smoke: exposition, stats agreement, distributed trace, TRACE accounting, engine restores and pprof all verified over 2 dgsd + 1 dgsgw"
