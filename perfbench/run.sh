#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments (see perfbench/README.md). Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
