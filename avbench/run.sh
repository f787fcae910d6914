#!/usr/bin/env bash
# Builds avbench from this checkout and runs it with the given arguments.
# Run from the repository root, e.g.:
#
#   bash avbench/run.sh --workload warm-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/avbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/avbench" && go build -o "$out/avbench" .)
exec "$out/avbench" -root "$root" "$@"
