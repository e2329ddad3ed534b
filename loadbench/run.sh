#!/usr/bin/env bash
# Builds lpathd and the load benchmark from the source tree in the current
# directory (the repository root), then runs the benchmark with the given
# arguments, e.g.
#
#   bash loadbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that tree,
# including the Go build cache.
set -euo pipefail

out=.bench_build/loadbench
export GOCACHE="$PWD/.bench_build/go-cache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out"
go build -o "$out/lpathd" ./cmd/lpathd
(cd loadbench && go build -o "../$out/loadbench" .)
exec "$out/loadbench" -lpathd "$out/lpathd" -out "$out" "$@"
