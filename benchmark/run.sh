#!/usr/bin/env bash
# Builds the benchmark driver inside the checkout and runs it. Everything
# the build and the runs write (Go build cache, binaries, daemon data
# directories, traces) lives under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
# Keep the Go tool's own files (build cache, temporaries, module path, the
# telemetry counters it keeps under the user config dir) inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
