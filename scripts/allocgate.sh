#!/usr/bin/env bash
# allocgate.sh — static allocation gate for the hot-path packages.
#
# The engine's steady-state claim (ROADMAP: "allocation-free in hot
# paths") is enforced dynamically by testing.AllocsPerRun in a few
# benchmarks, but nothing stopped a PR from quietly adding a heap
# escape to a path those benchmarks miss. This gate closes that hole
# statically: it parses the compiler's escape analysis (`go build
# -gcflags=-m`) for the hot-path packages, aggregates escape counts
# per file, and fails if any file gained escapes over the committed
# baseline (scripts/allocgate_baseline.txt).
#
# Per-file counts, not per-line: line numbers churn with every edit,
# but "this file now heap-allocates more than it used to" is exactly
# the signal we want a human to look at. Escapes that merely move
# within a file stay invisible; new ones anywhere fail the gate.
#
# Usage:
#   scripts/allocgate.sh            # compare against the baseline
#   scripts/allocgate.sh -update    # rewrite the baseline from HEAD
#
# The escape output is replayed from the build cache, so a warm run
# costs almost nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=(./internal/hypercube ./internal/collective ./internal/core ./internal/router ./internal/flightrec ./internal/gray ./internal/embed)
BASELINE=scripts/allocgate_baseline.txt

# current prints "file count" per source file, sorted, for every
# distinct "escapes to heap" / "moved to heap" diagnostic in the gated
# packages: one site is one escape however often it is instantiated or
# inlined. Identical lines (one per generic instantiation) count once.
# The compiler reports an inlined copy of a callee's allocation at the
# call site, so an escape at an "inlining call to F" site is dropped
# when F is "can inline" in a gated package and the same diagnostic
# lies in F's body (its definition line to its closing brace), where
# it is counted. F's own position is never dropped, and a callee
# defined outside the gated packages keeps its escapes at the call
# site. -gcflags without a pattern applies only to the packages named,
# but generic code instantiated in them (iter.Pull's, say) reports
# under its GOROOT file, keyed by its path relative to GOROOT/src so
# that the baseline does not depend on where Go lives.
current() {
  go build -gcflags=-m "${PKGS[@]}" 2>&1 | sort -u |
    awk -v pre="$(go env GOROOT)/src/" '
      match($0, /^[^:]+:[0-9]+(:[0-9]+)?: /) {
        pos = substr($0, 1, RLENGTH - 2); msg = substr($0, RLENGTH + 1)
        split(pos, pp, ":"); pkg = pp[1]; sub(/\/[^\/]*$/, "", pkg); sub(/.*\//, "", pkg)
        if (msg ~ /^can inline / && pos !~ /^\//) def[pkg "." substr(msg, 12)] = pos
        # F as named at the call: qualified by the caller package, or already by its own.
        if (msg ~ /^inlining call to /) calls[pos] = calls[pos] "\n" pkg "." substr(msg, 18) "\n" substr(msg, 18)
        if (msg ~ /escapes to heap|moved to heap/) { esc[++n] = pos; emsg[n] = msg; at[pp[1], msg] = at[pp[1], msg] " " pp[2] }
      }
      # bodyend is the last line of the function defined at line l of
      # the gofmt-ed file f: l for a one-liner, else the next "}" line.
      function bodyend(f, l,    src, i) {
        if (!((f, l) in last)) {
          last[f, l] = l
          while ((getline src < f) > 0)
            if (++i == l && src ~ /}$/) break
            else if (i > l && src == "}") { last[f, l] = i; break }
          close(f)
        }
        return last[f, l]
      }
      function inlined(e,    c, k, i, d, ls, j) {
        k = split(calls[esc[e]], c, "\n")
        for (i = 2; i <= k; i++) {
          if (!(c[i] in def) || def[c[i]] == esc[e]) continue
          split(def[c[i]], d, ":"); split(at[d[1], emsg[e]], ls, " ")
          for (j in ls) if (ls[j] + 0 >= d[2] + 0 && ls[j] + 0 <= bodyend(d[1], d[2] + 0)) return 1
        }
        return 0
      }
      END {
        for (e = 1; e <= n; e++) if (!inlined(e)) {
          split(esc[e], pp, ":"); f = pp[1]
          print index(f, pre) == 1 ? substr(f, length(pre) + 1) : f
        }
      }' |
    sort | uniq -c |
    awk '{ print $2, $1 }'
}

if [[ "${1:-}" == "-update" ]]; then
  {
    echo "# Per-file heap-escape counts in the hot-path packages,"
    echo "# from 'go build -gcflags=-m' (escapes to heap + moved to heap),"
    echo "# each distinct diagnostic line counted once, and an escape"
    echo "# inlined from a gated callee counted only in the callee's body."
    echo "# Regenerate with: scripts/allocgate.sh -update"
    current
  } > "$BASELINE"
  echo "allocgate: baseline updated ($(grep -cv '^#' "$BASELINE") files)"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "allocgate: missing $BASELINE — run scripts/allocgate.sh -update" >&2
  exit 1
fi

now=$(mktemp)
trap 'rm -f "$now"' EXIT
current > "$now"

fail=0
improved=0
while read -r file count; do
  base=$(awk -v f="$file" '$1 == f { print $2 }' "$BASELINE")
  base=${base:-0}
  if (( count > base )); then
    echo "allocgate: $file has $count heap escapes, baseline allows $base (+$((count - base)))" >&2
    fail=1
  elif (( count < base )); then
    improved=1
  fi
done < "$now"

# A file dropping out of the output entirely is also an improvement.
while read -r file base; do
  if ! grep -q "^$file " "$now"; then
    improved=1
  fi
done < <(grep -v '^#' "$BASELINE")

if (( fail )); then
  echo "allocgate: new heap escapes in hot-path packages — inspect with" >&2
  echo "  go build -gcflags=-m ${PKGS[*]} |& grep 'to heap'" >&2
  echo "and either remove the allocation or re-baseline deliberately with scripts/allocgate.sh -update" >&2
  exit 1
fi
if (( improved )); then
  echo "allocgate: escape counts improved — consider ratcheting: scripts/allocgate.sh -update"
fi
echo "allocgate: ok (no new heap escapes in ${PKGS[*]})"
