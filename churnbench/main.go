// Command churnbench is the repository's end-to-end benchmark. It runs one
// workload through the public churntomo.New(...).Run(ctx) API with tracing
// off and reports the end-to-end metrics, or (with -trace 1) re-runs the
// same input through each layer's public functions, timed from outside,
// and reports the per-layer metrics. See README.md for the workloads, the
// metric names and which layer metric should move which end-to-end one.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash churnbench/run.sh --workload batch-synth --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 6.1, "unit": "s"}, ...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and executes one benchmark invocation,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("churnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; picks the world from the workload's catalog")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: one traced run for the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for exported dataset files")
	record := fs.String("record", "", "write a fresh reference file to this path instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "churnbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "churnbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *record != "" {
		seeds := make([]uint64, recordCandidates)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		ref, err := recordReference(ctx, benchScale, dir, seeds, catalogSize, stderr)
		if err == nil {
			err = writeReference(*record, ref)
		}
		if err != nil {
			fmt.Fprintf(stderr, "churnbench: record: %v\n", err)
			return 1
		}
		return 0
	}

	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "churnbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "churnbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintf(stderr, "churnbench: %v\n", err)
		return 1
	}
	b, err := newBench(benchScale, wl, ref, *seed, dir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "churnbench: %v\n", err)
		return 1
	}
	var out report
	if *trace == 1 {
		out, err = b.traceMode(ctx)
	} else {
		out, err = b.endToEnd(ctx, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "churnbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "churnbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is the result line: the driver reads it from the last line of
// standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the tables below are the
// contract BENCHMARK.json mirrors (the smoke test checks they agree).
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported with -trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"pass_frac", "frac"},
}

// perLayerMetrics are reported with -trace 1, on every workload.
var perLayerMetrics = []metricDef{
	{"scenario.build_ms", "ms"},
	{"scenario.timeline_ms", "ms"},
	{"routing.epochs", "count"},
	{"iclab.measure_ms", "ms"},
	{"iclab.alloc_mb", "MiB"},
	{"iclab.records", "count"},
	{"iclab.merge_ms", "ms"},
	{"iclab.parallel_eff", "ratio"},
	{"routing.queries", "count"},
	{"routing.tree_computes", "count"},
	{"routing.tree_hit_frac", "frac"},
	{"routing.tree_miss_us", "us"},
	{"routing.tree_ms_est", "ms"},
	{"dataset.encode_ms", "ms"},
	{"dataset.decode_ms", "ms"},
	{"dataset.decode_alloc_mb", "MiB"},
	{"dataset.file_kb", "KiB"},
	{"tomo.build_ms", "ms"},
	{"tomo.build_alloc_mb", "MiB"},
	{"tomo.cnfs", "count"},
	{"tomo.clauses", "count"},
	{"tomo.solve_ms", "ms"},
	{"sat.zero", "count"},
	{"sat.one", "count"},
	{"sat.multi", "count"},
	{"tomo.identify_ms", "ms"},
	{"tomo.identified", "count"},
	{"stream.push_ms", "ms"},
	{"stream.push_alloc_mb", "MiB"},
	{"stream.first_window_ms", "ms"},
	{"stream.day_p50_ms", "ms"},
	{"stream.day_p90_ms", "ms"},
	{"stream.windows", "count"},
	{"stream.solved", "count"},
	{"stream.reused", "count"},
	{"stream.reuse_frac", "frac"},
	{"leakage.analyze_ms", "ms"},
	{"leakage.leakers", "count"},
	{"root.evaluate_ms", "ms"},
	{"root.glue_ms", "ms"},
	{"eval.precision", "frac"},
	{"eval.recall", "frac"},
}

// exactCounts are the per-layer metrics that are pure functions of the
// input: they must repeat exactly across runs and match the reference.
// Scheduling-sensitive counts (routing.tree_computes and what derives from
// it, under concurrent cache eviction) are reported but not compared.
var exactCounts = []string{
	"routing.epochs",
	"iclab.records",
	"routing.queries",
	"dataset.file_kb",
	"tomo.cnfs",
	"tomo.clauses",
	"sat.zero",
	"sat.one",
	"sat.multi",
	"tomo.identified",
	"stream.windows",
	"stream.solved",
	"stream.reused",
	"leakage.leakers",
}

// newReport packages values under their table units. A value missing
// from vals is a bug in the benchmark, reported as an error.
func newReport(defs []metricDef, vals map[string]float64, attempted, failed int) (report, error) {
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}
