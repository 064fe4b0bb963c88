#!/usr/bin/env bash
# Builds the repository benchmark from the sources in the current checkout
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run leave behind goes under .bench_build/
# in the checkout: the Go build cache, the binary and the benchmark's
# temporary directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" ]]; then
	echo "perfbench: run from the repository root (no module sources in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
