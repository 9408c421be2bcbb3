#!/usr/bin/env bash
# Builds the truthserve benchmark from the sources of the checkout it is
# run from, then runs it. Run it from the repository root:
#
#   bash truthbench/run.sh --workload refresh --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the workloads' durable state all
# stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd truthbench && go build -o "$out/truthbench" .)
exec "$out/truthbench" "$@"
