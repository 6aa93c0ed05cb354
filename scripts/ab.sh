#!/usr/bin/env bash
# ab.sh — same-host A/B of the benchmark between a base revision and
# the current checkout:
#
#   scripts/ab.sh [--seed N] <rev> <workload>...
#                                  e.g. scripts/ab.sh HEAD~ apps route
#                                       scripts/ab.sh --seed 3 HEAD~ route
#   scripts/ab.sh --go-bench <regexp> <rev>
#                                  e.g. scripts/ab.sh --go-bench 'Experiment/E[345]$' HEAD~
#
# With --go-bench it A/Bs the root package's Go benchmarks matching
# <regexp> instead (BenchmarkExperiment has one per table): `go test
# -c` binaries of both trees, run from their own trees at the default
# -test.benchtime, 10 pairs alternating which side goes first, and per
# benchmark the medians of ns/op, the change's gain, pairs won and the
# base's IQR, as below. Its results go to base.txt and change.txt.
#
# <rev> is exported with `git archive` into a temporary directory (no
# worktree is registered, so an interrupted run leaves nothing in the
# repository), and vmbench is built from both trees. Per workload, 10
# pairs of untraced runs at the default length and the given seed
# (default 1) alternate which side goes first. A claim is re-checked on
# a seed not used while the change was written. Results go to a fresh mktemp -d outside the
# repository (base.json and change.json, readable by
# `vmbench -compare`); the temporary tree is removed on exit and
# benchmark/ is only built, never edited.
#
# For every end-to-end metric of BENCHMARK.json, plus raw_ops_per_s
# (the uncalibrated rate), it prints both medians, the change's gain
# in the metric's better direction, pairs won by the change (ties count
# for neither side) and the base's interquartile range (the quartiles
# of Python's statistics.quantiles, as the benchmark's own -compare
# uses), then vmbench -compare's verdicts.
set -euo pipefail

seed=1
gobench=
case "${1:-}" in
--seed)
	seed=${2:-}
	shift 2 || true
	;;
--go-bench)
	gobench=${2:-}
	shift 2 || true
	;;
esac
if { [[ -z "$gobench" ]] && (($# < 2)); } || { [[ -n "$gobench" ]] && (($# != 1)); } ||
	! [[ "$seed" =~ ^[0-9]+$ ]]; then
	echo "usage: scripts/ab.sh [--seed N] <rev> <workload>..." >&2
	echo "       scripts/ab.sh --go-bench <regexp> <rev>" >&2
	exit 2
fi
rev=$1
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
pairs=10

out=$(mktemp -d)
case "$out/" in
"$root"/*)
	echo "ab.sh: $out is inside the repository; set TMPDIR elsewhere" >&2
	exit 2
	;;
esac
tree="$out/base-tree"
trap 'rm -rf "$tree" "$out"/*.vmbench "$out"/*.test' EXIT

mkdir "$tree"
git -C "$root" archive "$sha" | tar -x -C "$tree"
export GOWORK=off

if [[ -n "$gobench" ]]; then
	(cd "$tree" && go test -c -o "$out/base.test" .)
	(cd "$root" && go test -c -o "$out/change.test" .)
	gorun() { # side dir; the pair is $i
		local log="$out/$1-$i.log"
		(cd "$2" && "$out/$1.test" -test.run '^$' -test.bench "$gobench" -test.timeout 30m) >"$log" 2>&1 ||
			echo "ab.sh: a $1 run failed; see $log" >&2
		grep '^Benchmark.* ns/op' "$log" >>"$out/$1.txt" || true
	}
	for ((i = 0; i < pairs; i++)); do
		echo "ab.sh: go-bench pair $((i + 1))/$pairs" >&2
		if ((i % 2 == 0)); then
			gorun base "$tree"
			gorun change "$root"
		else
			gorun change "$root"
			gorun base "$tree"
		fi
	done
	echo "base   = $rev ($sha)"
	echo "change = working tree of $root"
	echo "bench  = $gobench on $(nproc) CPUs"
	echo "results in $out"
	python3 - "$out/base.txt" "$out/change.txt" <<'PYEOF'
import re, statistics, sys

def runs(path):
    # Runs are appended in order, so the i-th line of a benchmark is pair i.
    out = {}
    for line in open(path):
        m = re.match(r"(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", line)
        if m:
            out.setdefault(m[1], []).append(float(m[2]))
    return out

a, b = runs(sys.argv[1]), runs(sys.argv[2])
print(f"\n  {'benchmark':<28} {'base ns/op':>12} {'change ns/op':>12} {'gain':>8} {'won':>6} {'base IQR':>10}")
for name in a:
    xa, xb = a[name], b.get(name, [])
    n = min(len(xa), len(xb))
    if n < 2:
        print(f"  {name:<28} fewer than 2 pairs")
        continue
    xa, xb = xa[:n], xb[:n]
    won = sum(1 for x, y in zip(xa, xb) if y < x)
    ma, mb = statistics.median(xa), statistics.median(xb)
    q1, _, q3 = statistics.quantiles(xa, n=4)
    print(f"  {name:<28} {ma:>12.6g} {mb:>12.6g} {(ma - mb) / ma * 100:>+7.1f}% {won:>3}/{n:<2} {q3 - q1:>10.4g}")
PYEOF
	exit 0
fi
(cd "$tree/benchmark" && go build -o "$out/base.vmbench" .)
(cd "$root/benchmark" && go build -o "$out/change.vmbench" .)

# A run with failed ops still appends its result, and -compare below
# reports the failures; the other pairs go on.
run() { # side workload
	"$out/$1.vmbench" -workload "$2" -seed "$seed" -trace 0 -out "$out/$1.json" >>"$out/$1-$2.log" ||
		echo "ab.sh: a $1 run of $2 failed; see $out/$1-$2.log" >&2
}
for w in "$@"; do
	for ((i = 0; i < pairs; i++)); do
		echo "ab.sh: $w pair $((i + 1))/$pairs" >&2
		if ((i % 2 == 0)); then
			run base "$w"
			run change "$w"
		else
			run change "$w"
			run base "$w"
		fi
	done
done

echo "base   = $rev ($sha)"
echo "change = working tree of $root"
echo "seed   = $seed"
echo "results in $out"
python3 - "$root/BENCHMARK.json" "$out/base.json" "$out/change.json" "$@" <<'PYEOF'
import json, statistics, sys

bench, base_path, change_path, *workloads = sys.argv[1:]
metrics = [(m["name"], m["better"]) for m in json.load(open(bench))["end_to_end"]]
metrics.append(("raw_ops_per_s", "higher"))

def runs(path, w):
    # Runs are appended in order, so the i-th run of each side is pair i.
    out = []
    for r in json.load(open(path))["runs"]:
        if r["workload"] == w and r["trace"] == 0:
            vals = {k: v["value"] for k, v in r["metrics"].items()}
            vals.update(r.get("info", {}))
            out.append(vals)
    return out

for w in workloads:
    a, b = runs(base_path, w), runs(change_path, w)
    n = min(len(a), len(b))
    print(f"\n{w}: {n} pairs")
    print(f"  {'metric':<18} {'base med':>12} {'change med':>12} {'gain':>8} {'won':>6} {'base IQR':>10}")
    for name, better in metrics:
        xa = [r[name] for r in a[:n] if name in r]
        xb = [r[name] for r in b[:n] if name in r]
        if len(xa) != n or len(xb) != n or n < 2:
            continue
        sign = 1 if better == "higher" else -1
        won = sum(1 for x, y in zip(xa, xb) if sign * (y - x) > 0)
        ma, mb = statistics.median(xa), statistics.median(xb)
        q1, _, q3 = statistics.quantiles(xa, n=4)
        gain = sign * (mb - ma) / ma * 100 if ma else 0.0
        print(f"  {name:<18} {ma:>12.6g} {mb:>12.6g} {gain:>+7.1f}% {won:>3}/{n:<2} {q3 - q1:>10.4g}")
PYEOF
echo
"$out/change.vmbench" -compare "$out/base.json" "$out/change.json" || true
