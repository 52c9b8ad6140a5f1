#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it.
#
# Usage, from the repository root:
#
#   bash pipebench/run.sh --workload tpcc-advise --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the per-run reports go under
# $CARGO_TARGET_DIR (default .bench_build) so that nothing is written
# outside the checkout. A tree without the repository's Go module fails
# to build, and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/pipebench" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root/pipebench" && go build -o "$out/pipebench/pipebench" .)
exec "$out/pipebench/pipebench" --workdir "$out/pipebench" "$@"
