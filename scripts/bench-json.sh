#!/bin/sh
# bench-json.sh: run the root package's benchmarks with -benchmem and emit
# the results as a JSON array, one object per benchmark, to the file named
# by $1 (default BENCH.json). This is the machine-readable perf datapoint
# `make bench-json` records per PR; diff successive files to see the
# trajectory.
#
# Each benchmark runs BENCHCOUNT times at BENCHTIME iterations and the
# recorded ns/op is the minimum across runs — single-run numbers at
# "iterations: 1" are dominated by scheduler and allocator noise, while
# min-of-N converges on the repeatable cost. bytes/op and allocs/op are
# recorded from the run with that minimum. They are deterministic per
# iteration count for benchmarks that measure on one worker, such as
# Engine_MeasureSerial and Kernel_MeasurementDay (one day, so one
# worker), but not for those that measure on several: each measurement
# worker that takes a day while every day scratch (a routing View and the
# test buffers) is in use allocates a new one, so Engine_MeasureParallel's
# bytes/op and allocs/op vary with scheduling.
#
# Output shape:
#   [{"name": "BenchmarkKernel_CNFBuild-8", "iterations": 3, "runs": 3,
#     "ns_per_op": 123456.0, "bytes_per_op": 789, "allocs_per_op": 12}, ...]
set -eu
out=${1:-BENCH.json}
go=${GO:-go}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Defaults: 3 timed iterations per run, best of 3 runs. Bump via BENCHTIME
# / BENCHCOUNT for a statistically serious pass.
"$go" test -run '^$' -bench . -benchmem \
	-benchtime "${BENCHTIME:-3x}" -count "${BENCHCOUNT:-3}" . >"$tmp"

awk '
/^Benchmark/ {
    name = $1; iters = $2; ns = $3 + 0
    bytes = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      bytes  = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    runs[name]++
    if (!(name in best) || ns < best[name]) {
        best[name] = ns
        bestIters[name] = iters
        bestBytes[name] = bytes
        bestAllocs[name] = allocs
    }
    if (runs[name] == 1) order[n++] = name
}
END {
    printf("[\n")
    for (i = 0; i < n; i++) {
        name = order[i]
        printf("  {\"name\": \"%s\", \"iterations\": %s, \"runs\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
               name, bestIters[name], runs[name], best[name], bestBytes[name], bestAllocs[name])
        if (i < n - 1) printf(",")
        printf("\n")
    }
    printf("]\n")
}
' "$tmp" >"$out"

count=$(grep -c '"name"' "$out" || true)
echo "bench-json: wrote $count benchmarks (min of ${BENCHCOUNT:-3} runs) to $out" >&2
