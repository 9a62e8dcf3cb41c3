#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the checkout
# root. Everything the build and the run write stays under .bench_build/:
# the Go build cache, module cache, temp and config directories are all
# pointed there.
#   bash perfbench/run.sh --workload fig4-smoke --seed 1 --seconds 12 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/gocache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
