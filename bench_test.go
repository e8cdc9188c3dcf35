package churntomo

// The benchmark harness: the analysis behind Table 1 and Figures 3-5 of
// the paper's evaluation (§4), timed over a shared small-scale run, plus
// kernels for the expensive stages (routing trees, measurement, CNF
// solving). Run with:
//
//	go test -bench=. -benchmem
//
// The Figure 4 and 5 benchmarks print their artifact once (on the first
// iteration); churnlab prints every exhibit from the public Result.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"churntomo/internal/analysis"
	"churntomo/internal/churn"
	"churntomo/internal/dataset"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/routing"
	"churntomo/internal/stream"
	"churntomo/internal/tomo"
)

var (
	benchOnce sync.Once
	benchCell *cell
)

// benchRun builds one shared batch run for all benchmarks. Scale: the
// small config stretched to 90 days so month/year slices are populated.
func benchRun(b *testing.B) *cell {
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
		benchCell = res.cell
	})
	return benchCell
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
// throughput over the shared run's dataset: one encode to the
// versioned gzipped-JSONL format plus one decode per iteration, with
// bytes/sec reporting the compressed stream size.
func BenchmarkDatasetEncodeDecode(b *testing.B) {
	p := benchRun(b)
	f, err := fileOf(p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.Encode(&buf, f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(len(p.dataset.Records)), "records")
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
	p := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.ComputeTable1(p.dataset)
	}
}

func BenchmarkFigure3_PathChurn(b *testing.B) {
	p := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn.Measure(p.dataset.Records, nil)
	}
}

func BenchmarkFigure4_NoChurnAblation(b *testing.B) {
	p := benchRun(b)
	rows := analysis.Figure4(p.dataset.Records, 0)
	var art string
	for _, r := range rows {
		art += fmt.Sprintf("%-6s: 0=%.1f%% 1=%.1f%% 2=%.1f%% 3=%.1f%% 4=%.1f%% 5+=%.1f%% (n=%d)\n",
			r.Gran, 100*r.Frac[0], 100*r.Frac[1], 100*r.Frac[2],
			100*r.Frac[3], 100*r.Frac[4], 100*r.Frac[5], r.CNFs)
	}
	printOnce("Figure 4: solutions without churn", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Figure4(p.dataset.Records, 0)
	}
}

func BenchmarkFigure5_LeakageFlow(b *testing.B) {
	p := benchRun(b)
	var art string
	for _, e := range p.leakage.FlowEdges() {
		art += fmt.Sprintf("%s -> %s: %d\n", e.Edge.From, e.Edge.To, e.Weight)
	}
	art += fmt.Sprintf("regional fraction (excl CN): %.0f%%\n", 100*p.leakage.RegionalFrac(p.world.Graph, "CN"))
	printOnce("Figure 5: leakage flow", art)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leakage.Analyze(p.outcomes, p.world.Graph)
	}
}

// --- Stage kernels ---

func BenchmarkKernel_MeasurementDay(b *testing.B) {
	p := benchRun(b)
	cfg := iclab.PlatformConfig{Seed: 99, URLsPerDay: 2, RepeatsPerDay: 1}
	// One day's worth of measurements over the prepared scenario.
	short := *p.world
	short.End = short.Start.AddDate(0, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iclab.Run(&short, cfg)
	}
}

func BenchmarkKernel_CNFBuild(b *testing.B) {
	p := benchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.Build(p.dataset.Records, tomo.BuildConfig{})
	}
}

func BenchmarkKernel_SolveAll(b *testing.B) {
	p := benchRun(b)
	insts := make([]*tomo.Instance, len(p.outcomes))
	for i, o := range p.outcomes {
		insts[i] = o.Inst
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.SolveAll(insts)
	}
}

func BenchmarkKernel_RoutingTree(b *testing.B) {
	p := benchRun(b)
	g := p.world.Graph
	down := make([]bool, len(g.Links))
	salt := make([]uint64, len(g.ASes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.ComputeTree(g, int32(i%len(g.ASes)), down, salt, 0)
	}
}

// --- Engine: serial vs parallel ---

// benchMeasureScenario is a 30-day sub-window of the shared scenario, so
// the serial/parallel comparison runs in benchmark-friendly time.
func benchMeasureScenario(b *testing.B) *iclab.Scenario {
	p := benchRun(b)
	short := *p.world
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
	p := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.BuildAndSolve(p.dataset.Records, tomo.BuildConfig{Workers: 1})
	}
}

func BenchmarkEngine_BuildSolveStreaming(b *testing.B) {
	p := benchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tomo.BuildAndSolve(p.dataset.Records, tomo.BuildConfig{})
	}
}

// --- Streaming: incremental windowed solve vs full rebuild per window ---

var (
	benchShardsOnce sync.Once
	benchShards     [][]iclab.Record
)

// benchDayShards reproduces the shared run's measurement schedule
// sharded by day — the input shape of the streaming engine.
func benchDayShards(b *testing.B) [][]iclab.Record {
	p := benchRun(b)
	benchShardsOnce.Do(func() {
		benchShards = iclab.RunByDay(p.world, p.cfg.platformConfig())
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
	b.ReportMetric(float64(len(res.cell.dataset.Records)), "records")
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
