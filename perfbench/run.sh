#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build output, cache and record stays under $CARGO_TARGET_DIR
# (default .bench_build) in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/perfbench/tmp" "$out/perfbench/gocache" "$out/perfbench/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/perfbench/gocache"
export GOTMPDIR="$out/perfbench/tmp"
export XDG_CONFIG_HOME="$out/perfbench/config"
export GOTELEMETRY=off
export GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
