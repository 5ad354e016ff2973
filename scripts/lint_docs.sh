#!/usr/bin/env bash
# Documentation lint, enforced by `make docs` and CI:
#   1. every package (root, internal/*, cmd/*) has a package comment;
#   2. the operator-facing documents exist and are non-trivial;
#   3. the documents track the code they describe (payload kinds, frames,
#      endpoints, algorithm names, driver entry points, analyzers);
#   4. the public surface (root package API, dgsrun/dgsd/dgsgw flags)
#      equals its golden docs/API.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$missing" ]; then
  echo "packages without a package comment:"
  echo "$missing" | sed 's/^/  /'
  fail=1
fi

for doc in README.md docs/WIRE.md docs/HTTP.md docs/ANALYSIS.md docs/OBSERVABILITY.md DESIGN.md; do
  if [ ! -s "$doc" ]; then
    echo "missing required document: $doc"
    fail=1
  fi
done

# The wire spec must cover every payload kind the codec knows.
for kind in falsify rankbatch push reroute subgraph vectors eqsystem values matches control delta batch; do
  if ! grep -qi "$kind" docs/WIRE.md; then
    echo "docs/WIRE.md does not mention payload kind '$kind'"
    fail=1
  fi
done

# The wire spec must cover every transport frame, including the
# liveness/failover frames, and the heartbeat failure semantics.
for need in HELLO DEPLOY OPEN CLOSE MSGB ACKN PING PONG REDEPLOY heartbeat "site-scoped" Recovery; do
  if ! grep -qi -- "$need" docs/WIRE.md; then
    echo "docs/WIRE.md does not mention '$need'"
    fail=1
  fi
done

# The wire spec's frame table and tcpnet's frame-type const block must
# list the same type bytes: a retired frame cannot linger in the spec,
# and a new frame cannot ship without a row.
code_frames=$(sed -n '/^\/\/ Frame types/,/^)/s/^[[:space:]]*frame[A-Za-z]* *= *\(0x[0-9A-Fa-f]*\).*/\1/p' internal/transport/tcpnet/tcpnet.go | tr 'a-f' 'A-F' | sort | tr '\n' ' ')
doc_frames=$(sed -n 's/^| [A-Z-]* | \(0x[0-9A-Fa-f]*\) |.*/\1/p' docs/WIRE.md | tr 'a-f' 'A-F' | sort | tr '\n' ' ')
if [ -z "$code_frames" ] || [ "$code_frames" != "$doc_frames" ]; then
  echo "docs/WIRE.md frame table lists type bytes '$doc_frames', tcpnet.go's frame constants '$code_frames'"
  fail=1
fi

# The HTTP spec must cover every gateway endpoint and the error,
# overload and failover semantics clients program against.
for need in /query /apply /stats /healthz overload bad_request deadline "503" "Retry-After" cached version site_lost failovers; do
  if ! grep -qi -- "$need" docs/HTTP.md; then
    echo "docs/HTTP.md does not mention '$need'"
    fail=1
  fi
done

# The design document must describe the fault-tolerance layer.
for need in "Fault tolerance" ErrSiteLost faultnet "failover_smoke"; do
  if ! grep -q -- "$need" DESIGN.md; then
    echo "DESIGN.md does not mention '$need'"
    fail=1
  fi
done

# The design document must describe the planning layer: the advisory
# plan, the confluence argument, the canonical key, and that planning is
# one pure function with no off switch and a Fits check at the sites.
for need in "## 10. Planning" selectivity advisory confluen canonical "no off switch" GreedyPlan Plan.Fits "identity plan"; do
  if ! grep -qi -- "$need" DESIGN.md; then
    echo "DESIGN.md does not mention '$need'"
    fail=1
  fi
done

# The wire spec must document how plans ride OPEN — one blob, no planner
# name, empty = identity order, Fits-checked — and the one-version
# handshake at the version the code speaks.
version=$(sed -n 's/^const ProtocolVersion uint16 = \([0-9]*\)$/\1/p' internal/transport/tcpnet/tcpnet.go)
for need in "### Plans" "identity order" Plan.Fits Versioning "ProtocolVersion\`, currently $version)"; do
  if ! grep -q -- "$need" docs/WIRE.md; then
    echo "docs/WIRE.md does not mention '$need'"
    fail=1
  fi
done
# OPEN is exactly qid, kind, algo, query, config, plan, traceID.
open_fields=$(grep '^| OPEN |' docs/WIRE.md | grep -oE '`u(8|64) [a-zA-Z]+`|blob `[a-z]+`' | sed -E 's/.* `?([a-zA-Z]+)`$/\1/' | tr '\n' ' ')
if [ "$open_fields" != "qid kind algo query config plan traceID " ]; then
  echo "docs/WIRE.md OPEN row lists fields '$open_fields', want 'qid kind algo query config plan traceID '"
  fail=1
fi

# The wire spec must document tracing: the TRACE frame and OPEN's
# trace ID.
for need in TRACE traceID "Distributed tracing"; do
  if ! grep -q -- "$need" docs/WIRE.md; then
    echo "docs/WIRE.md does not mention '$need'"
    fail=1
  fi
done

# The observability guide must cover each surface: the exposition
# endpoint, tracing, profiling, and the slow-query log — and name every
# component prefix of the metric catalog.
for need in /metrics WithTrace QueryTrace pprof slow-query dgs_gw_ dgs_net_ dgsd_ obs-smoke; do
  if ! grep -q -- "$need" docs/OBSERVABILITY.md; then
    echo "docs/OBSERVABILITY.md does not mention '$need'"
    fail=1
  fi
done

# The HTTP spec must document the plan-only explain request, with the
# plan body's fields as serve.PlanBody renders them.
for need in explain $(sed -n '/^type PlanBody struct/,/^}/s/.*json:"\([a-z_]*\)".*/\1/p' internal/serve/serve.go); do
  if ! grep -q -- "\"$need\"" docs/HTTP.md; then
    echo "docs/HTTP.md does not mention '\"$need\"'"
    fail=1
  fi
done
if grep -q '"planner"' docs/HTTP.md; then
  echo "docs/HTTP.md still shows a \"planner\" field; the explain body has none"
  fail=1
fi

# README and the HTTP spec must name every algorithm the CLIs accept;
# the list is dgs.AlgorithmNames(), read off dgsrun's -algo usage line.
algos=$(go run ./cmd/dgsrun -h 2>&1 | sed -n '/^  -algo /{n;s/ *(default.*//;p;}' | tr -d '[:space:]' | tr '|' ' ' || true)
if [ -z "$algos" ]; then
  echo "could not read the algorithm names from dgsrun -h"
  fail=1
fi
for name in $algos; do
  for doc in README.md docs/HTTP.md; do
    if ! grep -qw -- "$name" "$doc"; then
      echo "$doc does not mention algorithm '$name'"
      fail=1
    fi
  done
done

# One driver entry point per algorithm: every exported Eval…/Run…
# function of the algorithm packages must be listed in DESIGN.md §4, so
# a wrapper cannot reappear without the document changing.
for pkg in dgpm dagsim treesim baseline; do
  for fn in $(grep -hoE '^func (Eval|Run)[A-Za-z0-9_]*' $(ls internal/$pkg/*.go | grep -v _test.go) | awk '{print $2}'); do
    if ! grep -q -- "\`$pkg\.$fn\`" DESIGN.md; then
      echo "internal/$pkg exports driver function $fn, which DESIGN.md §4 does not list"
      fail=1
    fi
  done
done

# Every dgsvet analyzer must have its own section in docs/ANALYSIS.md.
while IFS=$'\t' read -r name _doc; do
  [ -n "$name" ] || continue
  if ! grep -q "^## $name\$" docs/ANALYSIS.md; then
    echo "docs/ANALYSIS.md has no '## $name' section for that dgsvet analyzer"
    fail=1
  fi
done < <(go run ./cmd/dgsvet -list)

# The public surface must equal its golden: an option or flag appears or
# vanishes only together with a docs/API.txt diff (make api).
if ! ./scripts/api_surface.sh | diff -u docs/API.txt - >&2; then
  echo "public surface differs from docs/API.txt; if deliberate, run 'make api' and commit the diff"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs lint failed"
  exit 1
fi
echo "docs lint: ok"
