#!/usr/bin/env bash
# Builds the churnbench driver from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash churnbench/run.sh --workload batch-synth --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the exported dataset files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/churnbench/go.mod" ]]; then
	echo "churnbench: run from the repository root (needs go.mod and churnbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/churnbench" && go build -o "$out/bin/churnbench" .)
exec "$out/bin/churnbench" -workdir "$out/work" "$@"
