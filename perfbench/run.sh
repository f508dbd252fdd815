#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload eval-sweep --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's spans stay under .bench_build/ in the checkout. A build
# failure (for example, outside a full checkout) exits non-zero before any
# result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
