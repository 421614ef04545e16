#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. Run it from the repository root:
#
#   bash bench/run.sh --workload build-1m --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the runs' scratch files all stay
# under .bench_build/ in the working directory, and the toolchain never
# reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
