#!/usr/bin/env bash
# Builds the e2ebench benchmark from the checkout it is run in and runs
# it, passing every argument through:
#
#   bash e2ebench/run.sh --workload sum-stream --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go caches and
# the traced run's spans stay under $CARGO_TARGET_DIR (default
# .bench_build), so the script reads and writes nothing outside the
# checkout and needs no network.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
go -C "$here" build -o "$build/e2ebench" .
exec "$build/e2ebench" -spans "$build/e2ebench-spans.json" "$@"
