#!/usr/bin/env bash
# Builds the benchmark driver and the socetd daemon from this checkout's
# sources into .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload paper_flow|explore_gen|daemon_jobs \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Every file the build and the run write stays under .bench_build/ at the
# checkout root. The last line of standard output is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin" "$out/state"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/socetd" repro/cmd/socetd >&2
cd "$root"
exec "$out/bin/perfbench" -socetd "$out/bin/socetd" -state "$out/state" "$@"
