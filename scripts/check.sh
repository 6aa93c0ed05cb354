#!/bin/sh
# Pre-PR gate: formatting, module hygiene, vet, the vmlint static
# analyzers, build, the allocation and inlining gates, the full tests
# (the steady-state allocation guards and the schedule-independence
# test among them), the race detector on the code with host
# concurrency, the end-to-end CLI and vmprimd smokes (the second of
# them a cross-model pool hit: an ipsc run on the machine a cm2 run
# warmed must serve the CLI's ipsc documents), and the benchmark
# module's own gate (benchmark/check.sh). Run from the repository root:
#
#	./scripts/check.sh
#
# Simulated results are deterministic, so any table change this script
# surfaces is a real behavioral change, not noise.
#
# Set CHECK_ARTIFACT_DIR to keep the produced artifacts (profile and
# trace JSON, the demo post-mortem, metrics, critical-path reports, the
# vmprimd and vmload smoke outputs) instead of discarding them — CI uses
# this to upload them on failure.
set -eu

cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

# The module is dependency-free and must stay that way: tidy may not
# want to change go.mod.
if ! go mod tidy -diff >/dev/null 2>&1; then
	echo "go mod tidy would change go.mod/go.sum; run it and commit" >&2
	go mod tidy -diff >&2 || true
	exit 1
fi

go vet ./...
go build ./...

# Static allocation gate: the compiler's escape analysis must not
# report new heap escapes in the hot-path packages (hypercube,
# collective, core, router, flightrec) relative to the committed
# baseline.
# The dynamic AllocsPerRun guards only see the paths the benchmarks
# drive; this sees every function the compiler does.
./scripts/allocgate.sh

# Inlining gate: the link transport's hot path relies on the compiler
# inlining (*Proc).charge, (*Proc).Recv and (*Proc).wake (costs 79, 69
# and 43 against the inliner's budget of 80), and every kernel reads a
# container's local words through (*Vector).L and (*Matrix).L, whose
# materialized fast path is one inlined branch. One more statement or
# nested field access can push one over the budget with every other
# gate green, so fail if any of them stops inlining. The diagnostics
# replay from the build cache.
inline_gate() { # package, Type.method...
	pkg=$1
	shift
	inl=$(go build -gcflags=-m "$pkg" 2>&1)
	for m in "$@"; do
		echo "$inl" | grep -Eq "can inline \(\*${m%.*}\)\.${m#*.}\$" || {
			echo "(*${m%.*}).${m#*.} no longer inlines; bring its cost back within the inliner's budget (go build -gcflags=-m=2 $pkg)" >&2
			exit 1
		}
	done
}
inline_gate ./internal/hypercube Proc.charge Proc.Recv Proc.wake
inline_gate ./internal/core Vector.L Matrix.L

# The vmlint suite (see README). Build the tool once, then lint before
# spending time on tests — a lint finding is file:line:col actionable,
# a deadlocked test run fails at once with the run's post-mortem, which
# names the blocked processors but not the line that mispaired them.
vmlint_bin=$(mktemp)
go build -o "$vmlint_bin" ./cmd/vmlint
# One run does both checks: -diff prints every finding on stderr and
# exits non-zero if there is any, and it prints every pending suggested
# fix on stdout, which must stay empty — a pending fix is uncommitted
# mechanical work; run vmlint -fix and commit the result.
lint_status=0
fixes=$("$vmlint_bin" -diff ./...) || lint_status=$?
if [ "$lint_status" -ne 0 ] || [ -n "$fixes" ]; then
	echo "vmlint -diff failed: findings (above) or pending suggested fixes (below, if any); fix them, or run vmlint -fix and commit:" >&2
	echo "$fixes" >&2
	rm -f "$vmlint_bin"
	exit 1
fi
# The same suite through the go vet driver: exercises the -vettool
# unit-checker protocol, with package facts (identity taint, buffer
# sinks, collective summaries) crossing packages through vetx files.
go vet -vettool="$vmlint_bin" ./... || { rm -f "$vmlint_bin"; echo "vmlint (vettool) failed" >&2; exit 1; }
rm -f "$vmlint_bin"

# TestScheduleIndependence (internal/hypercube) is among the tests: the
# simulated bits must not depend on the order processors run in.
go test ./...
# Router wire format: a short native fuzz burst of the wire-form router
# against the decode/encode reference it replaced (stdlib, offline). A
# failing input lands in internal/router/testdata/fuzz/ — commit it with
# the fix. Minimization is capped because coverage of 2^d goroutines is
# noisy and the default budget (60s per input) would eat the burst.
go test -run '^$' -fuzz FuzzRouterWire -fuzztime 10s -fuzzminimizetime 1s ./internal/router/
# RunSpec parser: the untrusted POST /runs body path (json.Unmarshal,
# then Normalized) must never panic, and what it accepts must be in
# bounds and a fixed point of Normalized. Failing inputs land in
# internal/bench/testdata/fuzz/.
go test -run '^$' -fuzz FuzzRunSpec -fuzztime 5s ./internal/bench/
# The same body through the whole submit handler: size limit, strict
# decoding, validation, the structured error answer. Failing inputs
# land in internal/serve/testdata/fuzz/.
go test -run '^$' -fuzz FuzzSubmit -fuzztime 5s -fuzzminimizetime 1s ./internal/serve/
# Race gate, on the code with host concurrency (a run is one thread):
# the packages whose non-test code has go statements or imports sync or
# sync/atomic. cmd/vmprimd has no tests (the smoke below drives it),
# and the analysis framework's mutex guards nothing run concurrently. The
# MachinePool runs repeat: one run missed a machine-shared buffer pool
# (it races only when two pooled runs overlap) in 1 of 20 tries.
# These tests are the serving plane's guard against lock, goroutine and
# channel bugs (CHANGES.md has the mutant table that showed it); each
# step takes seconds, so a bounded -timeout makes a lock left held fail
# here by name instead of hanging the gate for Go's default 10 minutes.
go test -race -timeout 120s ./internal/serve/ ./internal/metrics/ ./cmd/vmload/
go test -race -timeout 120s -count=5 -run MachinePool ./internal/hypercube/
# Completion ordering: finishRun must finish its bookkeeping (counters,
# aggregate, retention) before it wakes /wait. These two tests act on
# the wake-up at once and caught the reverse order in only 1-14% of
# runs, so repeat them.
go test -race -timeout 120s -count=20 -run 'RunRetentionEviction|MetricsScrape' ./internal/serve/

# End-to-end profiled run: the JSON profile on stdout must parse, and
# the Chrome trace written next to it must parse, or the exporters
# regressed.
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
	mkdir -p "$CHECK_ARTIFACT_DIR"
	tmpdir=$CHECK_ARTIFACT_DIR
else
	tmpdir=$(mktemp -d)
	trap 'rm -rf "$tmpdir"' EXIT
fi
go run ./cmd/vmprim -profile E1 -json -trace-out "$tmpdir/trace.json" >"$tmpdir/profile.json"
python3 - "$tmpdir/profile.json" "$tmpdir/trace.json" <<'PYEOF'
import json, sys
prof = json.load(open(sys.argv[1]))
root = prof["spans"]
assert prof["p"] > 0 and root["name"] == "run" and root.get("children"), \
    "profile JSON missing span tree"
assert prof["bucket_skew_us"] == 0, "bucket reconciliation skew nonzero"
trace = json.load(open(sys.argv[2]))
assert trace["traceEvents"], "Chrome trace empty"
print("profiled run: %d procs, %d top-level spans, %d trace events" %
      (prof["p"], len(root["children"]), len(trace["traceEvents"])))
PYEOF

# End-to-end post-mortem: a deliberately deadlocked run must produce a
# structured report that names every processor's blocked receive, and
# the metrics snapshot must record the failed run. The command itself
# exits nonzero unless the report shows all procs blocked.
go run ./cmd/vmprim -demo-deadlock \
	-postmortem-out "$tmpdir/postmortem.json" \
	-metrics-out "$tmpdir/metrics.prom" >"$tmpdir/postmortem.txt"
python3 - "$tmpdir/postmortem.json" <<'PYEOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["blocked"] == rep["p"] == 4, "not every proc blocked: %s" % rep
for ps in rep["procs"]:
    assert ps["wait"] == "recv" and ps["wait_dim"] >= 0, \
        "proc %d not blocked in recv" % ps["proc"]
    vts = [ev["vt_us"] for ev in ps["events"]]
    assert vts == sorted(vts), "flight events out of VT order"
    seqs = [ev["seq"] for ev in ps["events"]]
    total = ps["events_total"]
    assert seqs == list(range(total - len(seqs), total)), \
        "proc %d flight seqs %s do not end at events_total-1 = %d" % (ps["proc"], seqs, total - 1)
assert len(rep["links"]) == 4, "expected 4 occupied links"
print("post-mortem: %d/%d procs blocked, %d occupied links" %
      (rep["blocked"], rep["p"], len(rep["links"])))
PYEOF
grep -q '^vmprim_run_failures_total 1$' "$tmpdir/metrics.prom" || {
	echo "metrics.prom did not record the failed run" >&2
	exit 1
}

# Critical-path gate: E4's critical-path JSON must match the committed
# golden schema — downstream tooling parses these files. (That it is
# the same under every schedule is TestScheduleIndependence's job.)
go run ./cmd/vmprim -critpath E4 \
	-critpath-out "$tmpdir/critpath.json" >"$tmpdir/critpath.txt" 2>/dev/null
python3 scripts/critpath_schema_check.py "$tmpdir/critpath.json" scripts/critpath_schema.json

# Benchmark gate: the nested vmprim/benchmark module is invisible to
# ./... above, so its own gate runs here — gofmt, vet, vmlint, and its
# tests, whose smoke runs check every op of all four workloads against
# the golden simulated oracle (sim time, messages and words per call,
# served-document hashes) at GOMAXPROCS 1 and NumCPU. Host time is not
# gated anywhere: compare two runs of benchmark/bench.sh on one host.
./benchmark/check.sh

# vmprimd smoke gate: the served observability plane must hand out the
# SAME simulated documents the CLI writes. Start the server, submit the
# E1 profile workload over HTTP, and byte-compare the served profile,
# Chrome trace and critical-path JSON against a direct `vmprim
# -profile E1` run — once with the server and CLI at GOMAXPROCS=1 and
# once at the host default — then validate the served critpath against
# the committed schema and check the per-run metrics match exactly.
# Each pass then submits E1 under the ipsc model to the same server: it
# must hit the pool (the machine the cm2 run warmed) and serve what
# `vmprim -profile E1 -model ipsc` writes, metrics included apart from
# the buffer-pool counters, which follow the machine's warmth. Finally
# drive a vmload mini-burst and require a clean SIGTERM shutdown.
go build -o "$tmpdir/vmprimd" ./cmd/vmprimd
go build -o "$tmpdir/vmprim-cli" ./cmd/vmprim
go build -o "$tmpdir/vmload" ./cmd/vmload

submit() { # $1: server address; $2: spec JSON; $3: output path prefix
	run_id=$(curl -sf -X POST "http://$1/runs" -d "$2" \
		| python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
	state=$(curl -sf "http://$1/runs/$run_id/wait?timeout=300s" \
		| python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
	[ "$state" = "done" ] || { echo "vmprimd($pass): run $2 ended $state" >&2; exit 1; }
	for doc in profile trace critpath metrics; do
		curl -sf "http://$1/runs/$run_id/$doc" >"$3$doc.json"
	done
	curl -sf "http://$1/runs/$run_id" >"$3status.json"
}

vmprimd_pass() { # $1: pass name; $2: GOMAXPROCS value ("" = host default)
	pass=$1
	gmp=${2:-}
	pdir="$tmpdir/vmprimd-$pass"
	mkdir -p "$pdir"
	rm -f "$pdir/addr"
	GOMAXPROCS=$gmp "$tmpdir/vmprimd" -addr 127.0.0.1:0 -addr-file "$pdir/addr" \
		-workers 1 2>"$pdir/server.log" &
	srv_pid=$!
	for _ in $(seq 100); do
		[ -s "$pdir/addr" ] && break
		sleep 0.1
	done
	addr=$(cat "$pdir/addr")
	submit "$addr" '{"exp":"E1"}' "$pdir/"
	curl -sfi "http://$addr/metrics" >"$pdir/scrape.txt"
	grep -qi '^content-type: text/plain; version=0.0.4' "$pdir/scrape.txt" || {
		echo "vmprimd($pass): /metrics Content-Type is not the 0.0.4 exposition" >&2
		exit 1
	}
	grep -q '^vmprimd_runs_done_total 1$' "$pdir/scrape.txt" || {
		echo "vmprimd($pass): scrape did not count the finished run" >&2
		exit 1
	}

	GOMAXPROCS=$gmp "$tmpdir/vmprim-cli" -profile E1 -json \
		-trace-out "$pdir/cli-trace.json" -critpath-out "$pdir/cli-critpath.json" \
		-metrics-out "$pdir/cli-metrics.json" >"$pdir/cli-profile.json" 2>/dev/null
	for artifact in profile trace critpath; do
		cmp "$pdir/$artifact.json" "$pdir/cli-$artifact.json" || {
			echo "vmprimd($pass): served $artifact differs from the CLI document" >&2
			exit 1
		}
	done
	python3 scripts/critpath_schema_check.py "$pdir/critpath.json" scripts/critpath_schema.json
	python3 - "$pdir/metrics.json" "$pdir/cli-metrics.json" <<'PYEOF'
import json, sys
# Every per-run metric, the host-side park and pool counters included,
# is a function of the program and must match the CLI's fresh-machine
# snapshot exactly.
def load(p):
    doc = json.load(open(p))
    return {m["name"]: m for m in doc["metrics"]}
served, cli = load(sys.argv[1]), load(sys.argv[2])
assert served.keys() == cli.keys(), \
    "metric sets differ: %s" % sorted(served.keys() ^ cli.keys())
for name in served:
    assert served[name] == cli[name], \
        "metric %s: served %r != cli %r" % (name, served[name], cli[name])
print("served per-run metrics: %d metrics identical to the CLI snapshot" % len(served))
PYEOF

	# Cross-model pool hit: the same dimension under the other model.
	submit "$addr" '{"exp":"E1","model":"ipsc"}' "$pdir/ipsc-"
	python3 -c 'import json,sys; sys.exit(0 if json.load(open(sys.argv[1])).get("pool_hit") is True else 1)' \
		"$pdir/ipsc-status.json" || {
		echo "vmprimd($pass): the ipsc run did not hit the machine the cm2 run warmed" >&2
		exit 1
	}
	GOMAXPROCS=$gmp "$tmpdir/vmprim-cli" -profile E1 -model ipsc -json \
		-trace-out "$pdir/cli-ipsc-trace.json" -critpath-out "$pdir/cli-ipsc-critpath.json" \
		-metrics-out "$pdir/cli-ipsc-metrics.json" >"$pdir/cli-ipsc-profile.json" 2>/dev/null
	for artifact in profile trace critpath; do
		cmp "$pdir/ipsc-$artifact.json" "$pdir/cli-ipsc-$artifact.json" || {
			echo "vmprimd($pass): served ipsc $artifact differs from the CLI document" >&2
			exit 1
		}
	done
	python3 - "$pdir/ipsc-metrics.json" "$pdir/cli-ipsc-metrics.json" <<'PYEOF'
import json, sys
# A pooled rerun differs from a fresh machine only in the buffer-pool
# counters (TestPooledRerunIsIdentical drops the same prefix).
def load(p):
    doc = json.load(open(p))
    return {m["name"]: m for m in doc["metrics"] if not m["name"].startswith("vmprim_pool_")}
served, cli = load(sys.argv[1]), load(sys.argv[2])
assert served.keys() == cli.keys(), \
    "metric sets differ: %s" % sorted(served.keys() ^ cli.keys())
for name in served:
    assert served[name] == cli[name], \
        "metric %s: served %r != cli %r" % (name, served[name], cli[name])
print("cross-model pool hit: %d per-run metrics identical to the CLI's ipsc snapshot" % len(served))
PYEOF

	kill -TERM "$srv_pid"
	wait "$srv_pid" || { echo "vmprimd($pass): nonzero exit on SIGTERM" >&2; exit 1; }
	grep -q 'clean shutdown' "$pdir/server.log" || {
		echo "vmprimd($pass): no clean shutdown line in server log" >&2
		exit 1
	}
	echo "vmprimd($pass): served E1 cm2 and ipsc artifacts byte-identical to CLI; clean shutdown"
}

vmprimd_pass gmp1 1
vmprimd_pass ncpu ""
cmp "$tmpdir/vmprimd-gmp1/profile.json" "$tmpdir/vmprimd-ncpu/profile.json" || {
	echo "served profile differs between GOMAXPROCS 1 and NumCPU" >&2
	exit 1
}

# vmload mini-burst: concurrent submissions against an in-process
# server must all complete; this keeps the load harness itself gated.
"$tmpdir/vmload" -runs 60 -c 8 -out "$tmpdir/vmload-smoke.json" 2>/dev/null
python3 - "$tmpdir/vmload-smoke.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
res = doc["results"]
assert res["completed"] == 60 and res["failed"] == 0, \
    "vmload smoke: %d/%d completed" % (res["completed"], 60)
lat = res["latency_us"]
assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"], "percentiles not ordered: %s" % lat
assert sum(res["histogram_counts"][-1:]) == 60, "histogram +Inf bucket != count"
print("vmload smoke: 60/60 runs, p50 %.0fus p95 %.0fus p99 %.0fus" %
      (lat["p50"], lat["p95"], lat["p99"]))
PYEOF

echo "check.sh: all clean"
