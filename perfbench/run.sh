#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under $CARGO_TARGET_DIR (default
# .bench_build), and the build never reaches for the network. The
# script replaces itself with the benchmark process, so no child
# outlives the run.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
