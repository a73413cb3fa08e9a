#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments are passed on.
# Run from the repository root:
#   bash perfbench/run.sh --workload quick-sweep --seed 1 --seconds 35 --trace 0
# Build outputs (binary, Go build cache) stay in .bench_build at the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, module cache, temporary
# files, telemetry counters under the user config dir) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
