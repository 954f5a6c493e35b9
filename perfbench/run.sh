#!/usr/bin/env bash
# Builds the benchmark and palirria-serve from this checkout into
# .bench_build, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload forkjoin --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --steady 10
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default mode is "local"), the first go command
# under a fresh config directory forks a detached telemetry process that
# outlives the build; mode "off" keeps the go command from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/palirria-serve" ./cmd/palirria-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --serve-bin "$out/palirria-serve" --out-dir "$out" "$@"
