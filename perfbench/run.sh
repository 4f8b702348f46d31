#!/usr/bin/env bash
# Builds the benchmark and the mixtimed daemon from the checkout it is
# run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload d1|figs|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes,
# the Go build cache and the toolchain's own config and telemetry
# included, stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/mixtimed" ./cmd/mixtimed

exec "$out/perfbench" -state-dir "$out" -bin-dir "$out" "$@"
