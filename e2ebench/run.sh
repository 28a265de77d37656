#!/usr/bin/env bash
# Builds xbarserver and the benchmark from this checkout into .bench_build
# and runs the benchmark with the given arguments. Run from the repository
# root, e.g.
#
#   bash e2ebench/run.sh --workload synth-unique --seed 1 --seconds 30 --trace 0
#
# Go's build cache lives in .bench_build too, so nothing is written outside
# the checkout. Build output goes to standard error; the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$out/xbarserver" ./cmd/xbarserver >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
