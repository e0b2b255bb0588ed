#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root
# of the checkout (build cache included, so nothing is written outside
# the checkout) and runs it with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C "$root" -o "$build/octant-bench" ./benchmarks/octant-bench
cd "$root"
exec "$build/octant-bench" "$@"
