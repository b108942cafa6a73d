#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it, passing every argument through. Run it from the root of the
# checkout. Everything the build and the run leave behind, the Go build
# cache included, goes under .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$(dirname "$0")" -o "$build/rmibench" .
exec "$build/rmibench" "$@"
