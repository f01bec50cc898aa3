#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload keyswitch --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
