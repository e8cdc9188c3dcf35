package churntomo

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), each regenerating the corresponding rows/series over a
// shared small-scale pipeline, plus kernels for the expensive stages
// (routing trees, measurement, CNF solving). Run with:
//
//	go test -bench=. -benchmem
//
// Each table/figure benchmark prints its artifact once (on the first
// iteration) so `go test -bench` output doubles as the reproduction log;
// the timed loop then measures the analysis cost itself.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"churntomo/internal/analysis"
	"churntomo/internal/dataset"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/report"
	"churntomo/internal/routing"
	"churntomo/internal/stream"
	"churntomo/internal/tomo"
)

var (
	benchOnce sync.Once
	benchPipe *Pipeline
)

// benchPipeline builds one shared pipeline for all benchmarks. Scale: the
// small config stretched to 90 days so month/year slices are populated.
func benchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		cfg := SmallConfig()
		cfg.Days = 90
		exp, err := New(WithConfig(cfg))
		if err != nil {
			panic(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			panic(err)
		}
		benchPipe = res.Pipelines[0]
	})
	return benchPipe
}

var printedArtifact = map[string]bool{}

// printOnce emits an artifact the first time a benchmark runs.
func printOnce(name, artifact string) {
	if printedArtifact[name] {
		return
	}
	printedArtifact[name] = true
	fmt.Fprintf(os.Stderr, "\n===== %s =====\n%s\n", name, artifact)
}

// BenchmarkDatasetEncodeDecode measures the on-disk codec's round-trip
// throughput over the shared pipeline's dataset: one encode to the
// versioned gzipped-JSONL format plus one decode per iteration, with
// bytes/sec reporting the compressed stream size.
func BenchmarkDatasetEncodeDecode(b *testing.B) {
	p := benchPipeline(b)
	f, err := pipelineToFile(p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Encode(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(len(p.Dataset.Records)), "records")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dataset.Encode(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_DatasetCharacteristics(b *testing.B) {
	p := benchPipeline(b)
	printOnce("Table 1: dataset characteristics", p.Dataset.Stats.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.ComputeTable1(p.Dataset)
	}
}

func BenchmarkFigure1a_SolutionsByGranularity(b *testing.B) {
	p := benchPipeline(b)
	rows := analysis.Figure1a(p.Outcomes)
	var art string
	for _, r := range rows {
		art += fmt.Sprintf("%-6s (%4d CNFs): 0=%.1f%% 1=%.1f%% 2+=%.1f%%\n",
			r.Group, r.CNFs, 100*r.Frac[0], 100*r.Frac[1], 100*r.Frac[2])
	}
	printOnce("Figure 1a: CNF solutions by granularity", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure1a(p.Outcomes)
	}
}

func BenchmarkFigure1b_SolutionsByAnomaly(b *testing.B) {
	p := benchPipeline(b)
	rows := analysis.Figure1b(p.Outcomes)
	var art string
	for _, r := range rows {
		art += fmt.Sprintf("%-6s (%4d CNFs): 0=%.1f%% 1=%.1f%% 2+=%.1f%%\n",
			r.Group, r.CNFs, 100*r.Frac[0], 100*r.Frac[1], 100*r.Frac[2])
	}
	printOnce("Figure 1b: CNF solutions by anomaly", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure1b(p.Outcomes)
	}
}

func BenchmarkFigure2_ReductionCDF(b *testing.B) {
	p := benchPipeline(b)
	d := analysis.Figure2(p.Outcomes)
	printOnce("Figure 2: candidate-set reduction CDF",
		report.CDF(d.CDF, "reduction %")+
			fmt.Sprintf("mean %.1f%%, no-elimination %.1f%%, n=%d\n", 100*d.Mean, 100*d.NoElimFrac, d.Samples))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure2(p.Outcomes)
	}
}

func BenchmarkFigure3_PathChurn(b *testing.B) {
	p := benchPipeline(b)
	var art string
	for _, d := range analysis.Figure3(p.Dataset.Records) {
		art += fmt.Sprintf("%-6s changed=%.1f%% (1:%.1f%% 2:%.1f%% 3:%.1f%% 4:%.1f%% 5+:%.1f%%) n=%d\n",
			d.Gran, 100*d.ChangedFrac(), 100*d.Buckets[1], 100*d.Buckets[2],
			100*d.Buckets[3], 100*d.Buckets[4], 100*d.Buckets[5], d.Samples)
	}
	printOnce("Figure 3: path churn", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure3(p.Dataset.Records)
	}
}

func BenchmarkFigure4_NoChurnAblation(b *testing.B) {
	p := benchPipeline(b)
	rows := analysis.Figure4(p.Dataset.Records, 0)
	var art string
	for _, r := range rows {
		art += fmt.Sprintf("%-6s: 0=%.1f%% 1=%.1f%% 2=%.1f%% 3=%.1f%% 4=%.1f%% 5+=%.1f%% (n=%d)\n",
			r.Gran, 100*r.Frac[0], 100*r.Frac[1], 100*r.Frac[2],
			100*r.Frac[3], 100*r.Frac[4], 100*r.Frac[5], r.CNFs)
	}
	printOnce("Figure 4: solutions without churn", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure4(p.Dataset.Records, 0)
	}
}

func BenchmarkTable2_CensorsByRegion(b *testing.B) {
	p := benchPipeline(b)
	var art string
	for _, r := range analysis.Table2(p.Identified, p.Graph, 8) {
		art += fmt.Sprintf("%-3s %d ASes, anomalies: %v\n", r.Country, len(r.ASNs), r.Kinds)
	}
	printOnce("Table 2: regions with most censoring ASes", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table2(p.Identified, p.Graph, 8)
	}
}

func BenchmarkTable3_TopLeakers(b *testing.B) {
	p := benchPipeline(b)
	var art string
	for _, l := range analysis.Table3(p.Leakage, p.Graph, 5) {
		art += fmt.Sprintf("%-9v %-20s %s leaks: %d ASes, %d countries\n",
			l.ASN, l.Name, l.Country, l.LeakedASes, l.LeakedCountries)
	}
	printOnce("Table 3: top leakers", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Table3(p.Leakage, p.Graph, 5)
	}
}

func BenchmarkFigure5_LeakageFlow(b *testing.B) {
	p := benchPipeline(b)
	var art string
	for _, e := range p.Leakage.FlowEdges() {
		art += fmt.Sprintf("%s -> %s: %d\n", e.Edge.From, e.Edge.To, e.Weight)
	}
	art += fmt.Sprintf("regional fraction (excl CN): %.0f%%\n", 100*p.Leakage.RegionalFrac(p.Graph, "CN"))
	printOnce("Figure 5: leakage flow", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leakage.Analyze(p.Outcomes, p.Graph)
	}
}

// --- Stage kernels ---

func BenchmarkKernel_MeasurementDay(b *testing.B) {
	p := benchPipeline(b)
	cfg := iclab.PlatformConfig{Seed: 99, URLsPerDay: 2, RepeatsPerDay: 1}
	// One day's worth of measurements over the prepared scenario.
	short := *p.Scenario
	short.End = short.Start.AddDate(0, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.Run(&short, cfg)
	}
}

func BenchmarkKernel_CNFBuild(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.Build(p.Dataset.Records, tomo.BuildConfig{})
	}
}

func BenchmarkKernel_SolveAll(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.SolveAll(p.Instances)
	}
}

func BenchmarkKernel_RoutingTree(b *testing.B) {
	p := benchPipeline(b)
	down := make([]bool, len(p.Graph.Links))
	salt := make([]uint64, len(p.Graph.ASes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.ComputeTree(p.Graph, int32(i%len(p.Graph.ASes)), down, salt, 0)
	}
}

// --- Engine: serial vs parallel ---

// benchMeasureScenario is a 30-day sub-window of the shared scenario, so
// the serial/parallel comparison runs in benchmark-friendly time.
func benchMeasureScenario(b *testing.B) *iclab.Scenario {
	p := benchPipeline(b)
	short := *p.Scenario
	short.End = short.Start.AddDate(0, 0, 30)
	return &short
}

func BenchmarkEngine_MeasureSerial(b *testing.B) {
	s := benchMeasureScenario(b)
	cfg := iclab.PlatformConfig{Seed: 5, URLsPerDay: 4, RepeatsPerDay: 2, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.Run(s, cfg)
	}
}

func BenchmarkEngine_MeasureParallel(b *testing.B) {
	s := benchMeasureScenario(b)
	// Workers is pinned (not GOMAXPROCS): on a single-core host the default
	// degrades to the serial inline path and the benchmark silently measures
	// the same thing as MeasureSerial. An explicit pool always exercises the
	// worker dispatch, the sharded oracle cache and the merge.
	cfg := iclab.PlatformConfig{Seed: 5, URLsPerDay: 4, RepeatsPerDay: 2, Workers: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.Run(s, cfg)
	}
}

func BenchmarkEngine_BuildSolveSerial(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.BuildAndSolve(p.Dataset.Records, tomo.BuildConfig{Workers: 1})
	}
}

func BenchmarkEngine_BuildSolveStreaming(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.BuildAndSolve(p.Dataset.Records, tomo.BuildConfig{})
	}
}

// --- Streaming: incremental windowed solve vs full rebuild per window ---

var (
	benchShardsOnce sync.Once
	benchShards     [][]iclab.Record
)

// benchDayShards reproduces the shared pipeline's measurement schedule
// sharded by day — the input shape of the streaming engine.
func benchDayShards(b *testing.B) [][]iclab.Record {
	p := benchPipeline(b)
	benchShardsOnce.Do(func() {
		benchShards = iclab.RunByDay(p.Scenario, p.Config.platformConfig())
	})
	return benchShards
}

const benchWindowDays = 30

// BenchmarkStream_WindowedIncremental replays a 30-day sliding window over
// the 90-day scenario through the incremental engine: each window re-solves
// only the CNFs its day boundary touched.
func BenchmarkStream_WindowedIncremental(b *testing.B) {
	shards := benchDayShards(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := stream.NewEngine(stream.Config{Window: benchWindowDays, Build: tomo.BuildConfig{Workers: 1}})
		windows, solved, reused := 0, 0, 0
		for _, day := range shards {
			if w := eng.Push(day); w != nil {
				windows++
				solved += w.Solved
				reused += w.Reused
			}
		}
		if i == 0 {
			b.Logf("%d windows: %d CNF solves, %d cache reuses", windows, solved, reused)
		}
	}
}

// BenchmarkStream_WindowedRebuild is the baseline the incremental engine
// must beat: the same window sequence, each solved from scratch by the
// batch builder over the window's records.
func BenchmarkStream_WindowedRebuild(b *testing.B) {
	shards := benchDayShards(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solved := 0
		for end := benchWindowDays - 1; end < len(shards); end++ {
			var flat []iclab.Record
			for _, day := range shards[end-benchWindowDays+1 : end+1] {
				flat = append(flat, day...)
			}
			_, outs := tomo.BuildAndSolve(flat, tomo.BuildConfig{Workers: 1})
			solved += len(outs)
		}
		if i == 0 {
			b.Logf("%d CNF solves across rebuilds", solved)
		}
	}
}

// --- Evaluation: ground-truth grading ---

var (
	benchEvalOnce sync.Once
	benchEvalRes  *Result
)

// benchEvalResult builds one small-scale graded Result shared by the
// evaluation benchmarks.
func benchEvalResult(b *testing.B) *Result {
	b.Helper()
	benchEvalOnce.Do(func() {
		exp, err := New(WithConfig(SmallConfig()))
		if err != nil {
			panic(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			panic(err)
		}
		benchEvalRes = res
	})
	return benchEvalRes
}

// BenchmarkKernel_Evaluate measures the ground-truth grading kernel: one
// truth extraction (a walk over every record's TrueActs/TruePath) plus
// one full Evaluate per iteration — the cost singleResult adds to every
// run by self-grading.
func BenchmarkKernel_Evaluate(b *testing.B) {
	res := benchEvalResult(b)
	b.ReportMetric(float64(len(res.Pipelines[0].Dataset.Records)), "records")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truth := res.Truth()
		if ev := Evaluate(res, truth); ev == nil {
			b.Fatal("nil evaluation")
		}
	}
}

// BenchmarkEngine_ChokepointE2E runs the chokepoint preset end to end
// per iteration — betweenness ranking, pinned censor placement, full
// measure/solve/grade — the new-preset datapoint alongside the matrix
// sweep below.
func BenchmarkEngine_ChokepointE2E(b *testing.B) {
	cfg := SmallConfig()
	cfg.Days = 6
	cfg.Vantages = 8
	cfg.URLs = 10
	cfg.URLsPerDay = 4
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := New(WithConfig(cfg), WithScenario("chokepoint"))
		if err != nil {
			b.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluation == nil {
			b.Fatal("run not graded")
		}
	}
}

// BenchmarkEngine_MatrixSeedSweep exercises matrix mode end to end:
// three tiny whole pipelines per iteration, run concurrently.
func BenchmarkEngine_MatrixSeedSweep(b *testing.B) {
	base := SmallConfig()
	base.Days = 6
	base.Vantages = 8
	base.URLs = 10
	base.URLsPerDay = 4
	base.Workers = 1 // the matrix supplies the concurrency, as churnlab does
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := New(WithConfig(base), WithSeedSweep(3))
		if err != nil {
			b.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Matrix.Failed > 0 {
			b.Fatalf("%d matrix cells failed", res.Matrix.Failed)
		}
	}
}
