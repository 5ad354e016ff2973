#!/bin/sh
# The driver's entry point (BENCHMARK.json "command"), run from the root
# of a checkout: build the benchmark from source into .bench_build/ and
# run it there, so that everything read and written stays inside the
# checkout — Go's build cache and temporary files included. Building is
# a no-op after the first run.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$root/.bench_build/bin/benchmark" .)
exec "$root/.bench_build/bin/benchmark" "$@"
