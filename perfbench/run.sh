#!/usr/bin/env bash
# Builds the benchmark (and with it the program) from the source of this
# checkout, then runs it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload sessions --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
