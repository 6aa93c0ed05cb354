#!/usr/bin/env bash
# Builds the benchmark once and runs all four workloads on seed 1,
# untraced and then traced, into a directory outside the repository:
#
#   benchmark/run.sh [DIR]        DIR defaults to a fresh mktemp -d
#
# DIR/result.json collects every run (feed two of them to
# `vmbench -compare A/result.json B/result.json`), and
# DIR/trace-<workload>.json holds the spans of each traced loop. Each
# workload runs untraced three times, round-robin, so that -compare has a
# run-to-run spread to judge with and can say "unresolved".
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
case "$out/" in
"$(dirname "$here")"/*)
	echo "run.sh: $out is inside the repository; results belong outside it" >&2
	exit 2
	;;
esac

(cd "$here" && go build -o "$out/vmbench" .)

status=0
for _ in 1 2 3; do
	for w in prims route apps serve; do
		"$out/vmbench" -workload "$w" -seed 1 -trace 0 -out "$out/result.json" || status=$?
	done
done
for w in prims route apps serve; do
	"$out/vmbench" -workload "$w" -seed 1 -trace 1 -out "$out/result.json" \
		-trace-out "$out/trace-$w.json" || status=$?
done
echo "run.sh: results in $out" >&2
exit "$status"
