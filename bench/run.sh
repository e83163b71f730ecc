#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the bench from source in the
# directory it is started from (the root of a checkout) and runs it with
# the driver's arguments. Build cache, temporary files and the binary all
# stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/sidr-bench" ./bench
exec "$build/sidr-bench" "$@"
