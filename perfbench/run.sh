#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, configuration, telemetry) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .)
exec "$build/perfbench.bin" "$@"
