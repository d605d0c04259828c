#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload fleet-room --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and run records stay in the build
# directory ($CARGO_TARGET_DIR, default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home" "$build/gotmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-runs" "$@"
