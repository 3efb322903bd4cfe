#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# per-run scratch directories) goes under .bench_build/ in the current
# directory; nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/gopath" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
# The go command's local telemetry lives under the user config directory.
export XDG_CONFIG_HOME="$work/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
