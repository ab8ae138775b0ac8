#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash bench/run.sh --workload churn-d2 --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced runs' span files stay under
# .bench_build/ in the checkout; nothing is fetched (GOPROXY=off). The
# build fails, and nothing runs, when the repository's sources are not
# next to bench/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$out/ftbench" .
exec "$out/ftbench" "$@"
