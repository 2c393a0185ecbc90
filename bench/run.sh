#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes (Go build cache, binary, temporary files, the disk
# workload's data directory, span files) stays under .bench_build in the
# checkout, which .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# Recorded with every result; "unknown" outside a git checkout.
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
# The go tool keeps its own files (env, telemetry counters) under these.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
