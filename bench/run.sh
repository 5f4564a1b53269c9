#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root (build
# cache included, so nothing is written outside the checkout) and runs it
# from there with the given flags. Run from the repository root:
#
#   bash bench/run.sh --workload local-step-2048 --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/edgeslice-bench" .)
exec "$out/edgeslice-bench" "$@"
