#!/usr/bin/env bash
# Builds the jadeperf benchmark from this checkout's sources and runs it.
#
#   bash jadeperf/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ at the checkout root, so the benchmark reads and writes
# nothing outside the checkout. A build failure (for instance a
# directory holding only the benchmark, without the repro module next
# to it) exits non-zero before anything is printed on stdout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/jadeperf"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/jadeperf" build -o "$out/jadeperf" . >&2
cd "$root"
exec "$out/jadeperf" "$@"
