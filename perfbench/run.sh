#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload oltp-numa --seed 0 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# settings) goes under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

if [ -d .git ] && command -v git >/dev/null; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo none)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
