#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash wallbench/run.sh --workload kv-duo --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go tool state)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$src" && go build -o "$out/wallbench" .)
exec "$out/wallbench" -spans-dir "$out/spans" "$@"
