#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# binary live under .bench_build, so nothing is written outside the
# checkout; the binary replaces this shell, so no process outlives it.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
