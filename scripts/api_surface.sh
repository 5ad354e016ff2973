#!/usr/bin/env bash
# Prints the repo's public surface — the root package's exported API and
# the flag lists of the three operator binaries — in the form recorded
# in docs/API.txt. `make api` regenerates the golden from it; `make docs`
# fails when the two differ, so an option or flag can only appear or
# vanish in a diff someone reads.
set -euo pipefail
cd "$(dirname "$0")/.."

go doc -all .
for cmd in dgsrun dgsd dgsgw; do
  echo
  echo "== $cmd -h"
  # flag prints "Usage of <path to the binary>:"; keep only the name.
  go run "./cmd/$cmd" -h 2>&1 | sed "s|^Usage of .*/$cmd:|Usage of $cmd:|"
done
