#!/bin/sh
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the checkout; nothing is fetched.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$(dirname "$0")" && go build -o "$build/pmsbbench" .)
exec "$build/pmsbbench" "$@"
