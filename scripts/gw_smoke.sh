#!/usr/bin/env bash
# Gateway smoke: the full serving stack as separate processes — two real
# dgsd site servers, one dgsgw gateway that ships them its fragments and
# serves HTTP. Asserts the serving semantics end to end:
#   1. /healthz is live and reports the build;
#   2. an identical second query is a cache hit;
#   3. /apply bumps the graph version and invalidates the cache;
#   4. the post-update query recomputes (and re-caches);
#   5. a graph loaded from a DGSG1 file (-graph) answers a pattern with
#      the same number of pairs as the generated graph it was saved
#      from, through both dgsrun and dgsgw — patterns must be parsed
#      against the loaded graph's own label dictionary.
# This is the CI-enforced form of the README's dgsd × dgsgw quickstart.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT1=${DGS_GW_SMOKE_PORT1:-17441}
PORT2=${DGS_GW_SMOKE_PORT2:-17442}
GWPORT=${DGS_GW_SMOKE_GWPORT:-17443}
GWPORT2=${DGS_GW_SMOKE_GWPORT2:-17444}
BIN=bin

mkdir -p "$BIN"
go build -o "$BIN/dgsd" ./cmd/dgsd
go build -o "$BIN/dgsgw" ./cmd/dgsgw
go build -o "$BIN/dgsrun" ./cmd/dgsrun
go build -o "$BIN/gengraph" ./cmd/gengraph

"$BIN/dgsd" -listen "127.0.0.1:$PORT1" -quiet &
D1=$!
"$BIN/dgsd" -listen "127.0.0.1:$PORT2" -quiet &
D2=$!
GW=
GW2=
TMP=$(mktemp -d)
trap 'kill $D1 $D2 ${GW:-} ${GW2:-} 2>/dev/null || true; rm -rf "$TMP"' EXIT

for i in $(seq 1 50); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT1") 2>/dev/null && (exec 3<>"/dev/tcp/127.0.0.1/$PORT2") 2>/dev/null; then
    break
  fi
  sleep 0.1
done

# A closed chain graph: deterministic edges, so /apply below can delete
# a known-present edge (0 -> 1).
"$BIN/dgsgw" -listen "127.0.0.1:$GWPORT" -connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  -gen chain -nodes 400 -frags 4 &
GW=$!

BASE="http://127.0.0.1:$GWPORT"
up=0
for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "gw smoke: gateway never became healthy" >&2
  exit 1
fi

echo "== healthz"
HEALTH=$(curl -fsS "$BASE/healthz")
echo "$HEALTH"
echo "$HEALTH" | grep -q '"ok": true'    || { echo "healthz not ok" >&2; exit 1; }
echo "$HEALTH" | grep -q '"build"'       || { echo "healthz lacks build version" >&2; exit 1; }
echo "$HEALTH" | grep -q '"remote": true' || { echo "gateway is not fronting remote sites" >&2; exit 1; }

Q='{"pattern":"node a A\nnode b B\nedge a b\nedge b a"}'

echo "== query #1 (miss)"
R1=$(curl -fsS "$BASE/query" -d "$Q")
echo "$R1" | grep -q '"cached": false' || { echo "first query should miss" >&2; exit 1; }

echo "== query #2 (must be a cache hit)"
R2=$(curl -fsS "$BASE/query" -d "$Q")
echo "$R2" | grep -q '"cached": true' || { echo "second identical query did not hit the cache" >&2; echo "$R2" >&2; exit 1; }

echo "== apply (delete edge 0->1; invalidates the cache)"
A1=$(curl -fsS "$BASE/apply" -d '{"ops":[{"del":true,"v":0,"w":1}]}')
echo "$A1"
echo "$A1" | grep -q '"version": 1' || { echo "apply did not bump the graph version" >&2; exit 1; }

echo "== query #3 (must recompute at the new version)"
R3=$(curl -fsS "$BASE/query" -d "$Q")
echo "$R3" | grep -q '"cached": false' || { echo "post-update query served the stale entry" >&2; echo "$R3" >&2; exit 1; }
echo "$R3" | grep -q '"version": 1'   || { echo "post-update result not tagged with version 1" >&2; exit 1; }

echo "== stats"
STATS=$(curl -fsS "$BASE/stats")
echo "$STATS"
echo "$STATS" | grep -q '"hits": 1'    || { echo "stats should report exactly one hit" >&2; exit 1; }
echo "$STATS" | grep -q '"applies": 1' || { echo "stats should report one apply" >&2; exit 1; }

echo "== -graph: a loaded DGSG1 file answers like the graph it was saved from"
# The pattern names labels out of the graph's first-use order, so a
# dictionary that is not the loaded graph's own assigns them other ids.
GEN="-gen web -nodes 3000 -edges 15000 -seed 1"
"$BIN/gengraph" $GEN -o "$TMP/g.dgsg" >/dev/null
printf 'node a l9\nnode b l0\nnode c l4\nedge a b\nedge b c\nedge c b\n' > "$TMP/q.pat"
pairs() { grep -o 'pairs=[0-9]*' | head -1 | cut -d= -f2; }
WANT=$("$BIN/dgsrun" $GEN -frags 4 -query "$TMP/q.pat" | pairs)
GOT=$("$BIN/dgsrun" -graph "$TMP/g.dgsg" -frags 4 -query "$TMP/q.pat" | pairs)
echo "generated: $WANT pairs; dgsrun -graph: $GOT pairs"
[ -n "$WANT" ] && [ "$WANT" -gt 0 ] || { echo "-graph smoke: reference run matched nothing" >&2; exit 1; }
[ "$GOT" = "$WANT" ] || { echo "dgsrun -graph returned $GOT pairs, generated graph has $WANT" >&2; exit 1; }

"$BIN/dgsgw" -listen "127.0.0.1:$GWPORT2" -graph "$TMP/g.dgsg" -frags 4 -quiet &
GW2=$!
BASE2="http://127.0.0.1:$GWPORT2"
for i in $(seq 1 100); do
  if curl -fsS "$BASE2/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
RG=$(curl -fsS "$BASE2/query" -d '{"pattern":"node a l9\nnode b l0\nnode c l4\nedge a b\nedge b c\nedge c b"}')
GWPAIRS=$(echo "$RG" | grep -o '"pairs": *[0-9]*' | grep -o '[0-9]*$')
echo "dgsgw -graph: $GWPAIRS pairs"
[ "$GWPAIRS" = "$WANT" ] || { echo "dgsgw -graph returned $GWPAIRS pairs, generated graph has $WANT" >&2; exit 1; }

echo "gw smoke: cache hit, update-driven invalidation, recompute and -graph dictionary all verified over 2 dgsd + dgsgw"
