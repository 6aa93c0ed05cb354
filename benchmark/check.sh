#!/usr/bin/env bash
# The gate for this module:
#
#   benchmark/check.sh
#
# scripts/check.sh at the repository root cannot see a nested module
# (./... stops at a go.mod), so what it does for the root module is done
# here for this one: gofmt, go vet, the unit tests, and vmlint both
# standalone and as a vet tool. vmlint audits by import path and has no
# scope for vmprim/benchmark, so the non-test sources are linted as a
# command package (vmprim/cmd/vmbenchlint, held to the same contracts as
# every other consumer of the simulator) in a scratch copy of the
# repository. Nothing is written into the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOWORK=off

cd "$here"
fmt="$(gofmt -l .)"
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi
go vet ./...
go test ./...

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && tar cf - --exclude=.git --exclude=.bench_build --exclude=benchmark .) | tar xf - -C "$tmp"
mkdir "$tmp/cmd/vmbenchlint"
cp "$here/golden.json" "$tmp/cmd/vmbenchlint/"
for f in "$here"/*.go; do
	case "$f" in
	*_test.go) ;;
	*) cp "$f" "$tmp/cmd/vmbenchlint/" ;;
	esac
done
cd "$tmp"
go build -o "$tmp/vmlint" ./cmd/vmlint
"$tmp/vmlint" ./cmd/vmbenchlint
go vet -vettool="$tmp/vmlint" ./cmd/vmbenchlint
echo "benchmark/check.sh: ok" >&2
