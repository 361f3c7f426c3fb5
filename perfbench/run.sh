#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 30 --trace 0
# Everything the build and the run leave behind goes to .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# Keep the Go toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
