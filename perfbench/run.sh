#!/usr/bin/env bash
# Builds the PeerWindow benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload full-churn --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 10
#
# Run from the repository root. Everything the build and the runs leave
# behind goes to .bench_build/ under the current directory: the Go build
# cache, the binary and the span files of traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off

# The module replaces peerwindow with the parent directory, so outside a
# full checkout the build fails and no result is printed.
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
