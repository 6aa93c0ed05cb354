#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given, e.g.
#
#   bash benchmark/bench.sh --workload prims --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the result object. Nothing is
# read or written outside the checkout: the Go build cache, Go's
# temporary files and the binary all live under .bench_build/ at its
# root (ignored by git).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOWORK=off

# A cached rebuild takes well under a second, so building on every call
# is what keeps the binary in step with the source.
(cd "$here" && go build -o "$build/vmbench" .) >&2

exec "$build/vmbench" "$@"
