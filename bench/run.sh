#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, temp
# files, the binary) stays under .bench_build/ at the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user config dir.
(cd "$root/bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/mccs-bench" .)
exec "$build/mccs-bench" "$@"
