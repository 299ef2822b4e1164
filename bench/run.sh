#!/usr/bin/env bash
# The benchmark driver's entry point: build the harness with a Go build cache
# inside the checkout, so nothing is read or written outside it, then run it
# from the repository root. All arguments go to the harness.
#
#   bash bench/run.sh --workload steady_mixed --seed 1 --seconds 20 --trace 0
#
# `go run ./bench` does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench -workdir .bench_build/work "$@"
