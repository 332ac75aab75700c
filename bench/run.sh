#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it; the
# arguments go to the program unchanged. Everything the Go toolchain writes
# (build cache, binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
