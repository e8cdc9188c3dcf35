package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"churntomo"
	"churntomo/internal/dataset"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/routing"
	"churntomo/internal/sat"
	"churntomo/internal/scenario"
	"churntomo/internal/stream"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
)

// The traced run drives one world through each layer's public functions
// and times every call from outside: scenario.Build (its onStage hook
// marks the sub-stages), iclab.RunByDayCtx and MergeShards,
// dataset.WriteFile and ReadFile, tomo.Build, SolveAll and
// IdentifyCensors, leakage.Analyze, stream.Engine.PushCtx and FlushCtx,
// routing.Oracle.Stats and TreeAt, and churntomo.Evaluate. Every traced run
// exercises every layer on its world, so every per-layer metric is
// measured on every workload; layers off a workload's own path run as
// cross-checks on the same input (see README.md).

// traceMode does the workload's traced run, then one end-to-end run on
// the same input, and reports the per-layer metrics. The traced run fails
// when its export, verdict or exact counts differ from the end-to-end run
// or the reference; the end-to-end run fails when its verdict differs from
// the reference.
func (b *bench) traceMode(ctx context.Context) (report, error) {
	tw, err := traceWorld(ctx, b.sc, b.wl.family, b.world.Seed, b.filePath(), true)
	if err != nil {
		return report{}, fmt.Errorf("traced run: %w", err)
	}
	var tracedErrs []error
	if b.wl.replay && tw.fileSHA != b.world.FileSHA256 {
		tracedErrs = append(tracedErrs, fmt.Errorf("traced export digest %s, reference %s", tw.fileSHA, b.world.FileSHA256))
	}
	start := time.Now()
	res, err := b.runOnce(ctx)
	e2eMS := ms(start)
	if err != nil {
		return report{}, fmt.Errorf("end-to-end run: %w", err)
	}
	e2eErr := b.check(res)
	if err := tw.traceVerdict(b.wl).diff(verdictOf(res, b.wl.stream)); err != nil {
		tracedErrs = append(tracedErrs, fmt.Errorf("traced run differs from the end-to-end run: %w", err))
	}
	vals, err := tw.finish(b.wl, res, e2eMS)
	if err != nil {
		return report{}, err
	}
	if err := checkCounts(exactOf(vals), b.world.Counts[b.wl.name]); err != nil {
		tracedErrs = append(tracedErrs, err)
	}
	failed := 0
	if len(tracedErrs) > 0 {
		failed++
	}
	for _, err := range tracedErrs {
		fmt.Fprintf(b.log, "churnbench: %s traced run: %v\n", b.wl.name, err)
	}
	if e2eErr != nil {
		failed++
		fmt.Fprintf(b.log, "churnbench: %s end-to-end run: %v\n", b.wl.name, e2eErr)
	}
	return newReport(perLayerMetrics, vals, 2, failed)
}

// tracedWorld is what one traced pass over a world produced.
type tracedWorld struct {
	vals map[string]float64
	// batch is the verdict of localizing every day at once; stream the
	// verdict of the sliding-window replay.
	batch, stream verdict
	// leakage per localization, which the workload's own path decides.
	leakBatchMS, leakStreamMS float64
	leakBatch, leakStream     int
	fileSHA                   string
}

// ms returns the milliseconds elapsed since start.
func ms(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// buildWorld runs scenario.Build for the world, stamping the onStage
// boundaries; it returns the world, the whole build's time and the time of
// the churn-timeline stage (timeline plus routing oracle).
func buildWorld(sc scale, seed uint64, days int) (*scenario.World, float64, float64, error) {
	spec, ok := scenario.Preset(scenarioName)
	if !ok {
		return nil, 0, 0, fmt.Errorf("scenario preset %q not registered", scenarioName)
	}
	cfg := sc.config(seed, days)
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	}
	params := scenario.Params{
		Seed: cfg.Seed,
		ASes: cfg.ASes, Countries: cfg.Countries,
		Vantages: cfg.Vantages, URLs: cfg.URLs,
		Start: cfg.Start, End: cfg.Start.AddDate(0, 0, cfg.Days),
	}
	var timelineStart, timelineEnd time.Time
	onStage := func(s scenario.Stage) error {
		switch s {
		case scenario.StageTimeline:
			timelineStart = time.Now()
		case scenario.StageCensors:
			timelineEnd = time.Now()
		}
		return nil
	}
	start := time.Now()
	w, err := scenario.Build(spec, params, onStage)
	if err != nil {
		return nil, 0, 0, err
	}
	return w, ms(start), float64(timelineEnd.Sub(timelineStart).Nanoseconds()) / 1e6, nil
}

// platformConfig re-derives the root package's measurement configuration.
func (s scale) platformConfig(seed uint64, workers int) iclab.PlatformConfig {
	return iclab.PlatformConfig{
		Seed:          seed + platformSeedOffset,
		Workers:       workers,
		URLsPerDay:    s.dims.URLsPerDay,
		RepeatsPerDay: s.dims.RepeatsPerDay,
	}
}

// headerOf rebuilds the dataset header the public export writes.
func headerOf(w *scenario.World, seed uint64) dataset.Header {
	h := dataset.Header{
		Scenario: scenarioName,
		Seed:     seed,
		Start:    w.Platform.Start.UTC(),
		Days:     w.Platform.Days(),
	}
	for _, v := range w.Platform.Vantages {
		h.Vantages = append(h.Vantages, dataset.Vantage{ASN: uint32(v.ASN), Country: v.Country})
	}
	for _, t := range w.Platform.Targets {
		h.Targets = append(h.Targets, dataset.Target{URL: t.URL.Host, Category: uint8(t.URL.Category), ASN: uint32(t.ASN)})
	}
	for i := range w.Graph.ASes {
		as := &w.Graph.ASes[i]
		h.ASes = append(h.ASes, dataset.ASMeta{ASN: uint32(as.ASN), Name: as.Name, Country: as.Country, Class: as.Class.String()})
	}
	for _, asn := range w.Censors.ASNs() {
		h.TruthCensors = append(h.TruthCensors, uint32(asn))
	}
	return h
}

// metadataGraph rebuilds the lookup-only graph a replay runs under.
func metadataGraph(h *dataset.Header) (*topology.Graph, error) {
	classes := map[string]topology.Class{
		"": topology.ClassTransit, "transit": topology.ClassTransit,
		"content": topology.ClassContent, "enterprise": topology.ClassEnterprise,
	}
	ases := make([]topology.AS, 0, len(h.ASes))
	for _, m := range h.ASes {
		class, ok := classes[m.Class]
		if !ok {
			return nil, fmt.Errorf("dataset AS%d carries unknown class %q", m.ASN, m.Class)
		}
		as := topology.AS{ASN: topology.ASN(m.ASN), Name: m.Name, Country: m.Country, Class: class}
		if c, ok := topology.CountryByCode(m.Country); ok {
			as.Region = c.Region
		}
		ases = append(ases, as)
	}
	return topology.MetadataGraph(ases), nil
}

// copyDays gives a consumer that stamps record IDs its own batches.
func copyDays(days [][]iclab.Record) [][]iclab.Record {
	out := make([][]iclab.Record, len(days))
	for d, recs := range days {
		if recs != nil {
			out[d] = append([]iclab.Record(nil), recs...)
		}
	}
	return out
}

// sortedASNs returns the identified ASNs, ascending.
func sortedASNs(identified map[topology.ASN]*tomo.IdentifiedCensor) []uint32 {
	out := make([]uint32, 0, len(identified))
	for asn := range identified {
		out = append(out, uint32(asn))
	}
	slices.Sort(out)
	return out
}

// outcomeVerdict summarizes a localization's outcomes.
func outcomeVerdict(outs []tomo.Outcome, identified map[topology.ASN]*tomo.IdentifiedCensor) verdict {
	v := verdict{Identified: sortedASNs(identified), CNFs: len(outs)}
	for _, o := range outs {
		switch o.Class {
		case sat.Unsat:
			v.Classes[0]++
		case sat.Unique:
			v.Classes[1]++
		case sat.Multiple:
			v.Classes[2]++
		}
	}
	return v
}

// treeMissMicros is the mean cold TreeAt on a fresh oracle over the
// world's graph and timeline: every (destination, epoch) key is distinct,
// so every call computes a tree.
func treeMissMicros(w *scenario.World) float64 {
	o := routing.NewOracle(w.Graph, w.Timeline, 0)
	seen := map[int32]bool{}
	var dsts []int32
	for _, t := range w.Platform.Targets {
		if !seen[t.Idx] {
			seen[t.Idx] = true
			dsts = append(dsts, t.Idx)
		}
	}
	const keys = 1024
	epochs := w.Timeline.NumEpochs()
	per := (keys + len(dsts) - 1) / len(dsts)
	if per > epochs {
		per = epochs
	}
	calls := 0
	start := time.Now()
	for i := 0; i < per; i++ {
		ep := int32(i * epochs / per)
		for _, dst := range dsts {
			o.TreeAt(dst, ep)
			calls++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls)
}

// traceWorld runs the traced pass over one catalog world, exporting it to
// path. withEff adds the serial measurement behind iclab.parallel_eff (on
// a second, fresh world, so its routing cache starts cold too).
func traceWorld(ctx context.Context, sc scale, family string, seed uint64, path string, withEff bool) (*tracedWorld, error) {
	days := sc.days(family)
	workers := sc.dims.Workers
	tw := &tracedWorld{vals: map[string]float64{}}
	v := tw.vals

	// Substrate and measurement.
	w, buildMS, timelineMS, err := buildWorld(sc, seed, days)
	if err != nil {
		return nil, err
	}
	v["scenario.build_ms"], v["scenario.timeline_ms"] = buildMS, timelineMS
	v["routing.epochs"] = float64(w.Timeline.NumEpochs())

	alloc := allocatedMiB()
	start := time.Now()
	shards, err := iclab.RunByDayCtx(ctx, w.Platform, sc.platformConfig(seed, workers))
	if err != nil {
		return nil, err
	}
	v["iclab.measure_ms"] = ms(start)
	v["iclab.alloc_mb"] = allocatedMiB() - alloc
	queries, computes := w.Oracle.Stats()
	v["routing.queries"], v["routing.tree_computes"] = float64(queries), float64(computes)
	v["routing.tree_hit_frac"] = 1 - float64(computes)/float64(queries)

	// Export and re-import: the replays' set-up and input.
	file := &dataset.File{Header: headerOf(w, seed), Days: shards}
	start = time.Now()
	if err := dataset.WriteFile(path, file); err != nil {
		return nil, err
	}
	v["dataset.encode_ms"] = ms(start)
	if tw.fileSHA, err = fileSHA256(path); err != nil {
		return nil, err
	}
	alloc = allocatedMiB()
	start = time.Now()
	decoded, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v["dataset.decode_ms"] = ms(start)
	v["dataset.decode_alloc_mb"] = allocatedMiB() - alloc
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	v["dataset.file_kb"] = float64(info.Size()) / 1024

	// The batch localization runs on what the workload's own run reads:
	// the measured shards for batch-synth, the decoded file for replays.
	input, graph := shards, w.Graph
	if family == familyReplay {
		input = decoded.Days
		if graph, err = metadataGraph(&decoded.Header); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	records := iclab.MergeShards(input)
	v["iclab.merge_ms"] = ms(start)
	v["iclab.records"] = float64(len(records))

	bcfg := tomo.BuildConfig{Workers: workers}
	alloc = allocatedMiB()
	start = time.Now()
	insts := tomo.Build(records, bcfg)
	v["tomo.build_ms"] = ms(start)
	v["tomo.build_alloc_mb"] = allocatedMiB() - alloc
	clauses := 0
	for _, in := range insts {
		clauses += len(in.CNF.Clauses)
	}
	v["tomo.cnfs"], v["tomo.clauses"] = float64(len(insts)), float64(clauses)
	start = time.Now()
	outs := tomo.SolveAll(insts)
	v["tomo.solve_ms"] = ms(start)
	start = time.Now()
	identified := tomo.IdentifyCensors(outs, minCNFs)
	v["tomo.identify_ms"] = ms(start)
	tw.batch = outcomeVerdict(outs, identified)
	v["tomo.identified"] = float64(len(identified))
	v["sat.zero"], v["sat.one"], v["sat.multi"] = float64(tw.batch.Classes[0]), float64(tw.batch.Classes[1]), float64(tw.batch.Classes[2])
	start = time.Now()
	leak := leakage.Analyze(outs, graph)
	tw.leakBatchMS, tw.leakBatch = ms(start), leak.LeakToOtherASes()

	// The sliding-window replay, on its own copy of the decoded days.
	windows, err := traceStream(ctx, sc, copyDays(decoded.Days), v)
	if err != nil {
		return nil, err
	}
	final := windows[len(windows)-1]
	tw.stream = outcomeVerdict(final.Outcomes, final.Identified)
	tw.stream.WindowCensors = []int{}
	for _, win := range windows {
		tw.stream.WindowCensors = append(tw.stream.WindowCensors, len(win.Identified))
	}
	start = time.Now()
	leak = leakage.Analyze(final.Outcomes, graph)
	tw.leakStreamMS, tw.leakStream = ms(start), leak.LeakToOtherASes()
	if err := crossCheckWindow(final, decoded.Days, bcfg); err != nil {
		return nil, err
	}

	v["routing.tree_miss_us"] = treeMissMicros(w)
	v["routing.tree_ms_est"] = v["routing.tree_computes"] * v["routing.tree_miss_us"] / 1e3

	if withEff {
		serial, _, _, err := buildWorld(sc, seed, days)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := iclab.RunByDayCtx(ctx, serial.Platform, sc.platformConfig(seed, 1)); err != nil {
			return nil, err
		}
		v["iclab.parallel_eff"] = ms(start) / (float64(workers) * v["iclab.measure_ms"])
	}
	return tw, nil
}

// traceStream pushes the day batches through a stream engine configured
// as the streaming workload's Experiment configures it, timing every call.
func traceStream(ctx context.Context, sc scale, days [][]iclab.Record, v map[string]float64) ([]*stream.Window, error) {
	eng := stream.NewEngine(stream.Config{
		Window:  sc.window,
		Stride:  1,
		MinCNFs: minCNFs,
		Build:   tomo.BuildConfig{Workers: sc.dims.Workers},
	})
	var windows []*stream.Window
	var dayMS []float64
	firstMS := 0.0
	alloc := allocatedMiB()
	total := time.Now()
	for _, recs := range days {
		start := time.Now()
		win, err := eng.PushCtx(ctx, recs)
		if err != nil {
			return nil, err
		}
		dayMS = append(dayMS, ms(start))
		if win != nil {
			if len(windows) == 0 {
				firstMS = dayMS[len(dayMS)-1]
			}
			windows = append(windows, win)
		}
	}
	win, err := eng.FlushCtx(ctx)
	if err != nil {
		return nil, err
	}
	if win != nil {
		windows = append(windows, win)
	}
	v["stream.push_ms"] = ms(total)
	v["stream.push_alloc_mb"] = allocatedMiB() - alloc
	if len(windows) == 0 {
		return nil, fmt.Errorf("stream: %d days emitted no window", len(days))
	}
	solved, reused := 0, 0
	for _, w := range windows {
		solved += w.Solved
		reused += w.Reused
	}
	v["stream.first_window_ms"] = firstMS
	v["stream.day_p50_ms"], v["stream.day_p90_ms"] = quantile(dayMS, 0.5), quantile(dayMS, 0.9)
	v["stream.windows"] = float64(len(windows))
	v["stream.solved"], v["stream.reused"] = float64(solved), float64(reused)
	v["stream.reuse_frac"] = float64(reused) / float64(solved+reused)
	return windows, nil
}

// crossCheckWindow re-localizes the final window's days in batch: the
// incremental engine must reach the verdict a rebuild reaches.
func crossCheckWindow(final *stream.Window, days [][]iclab.Record, cfg tomo.BuildConfig) error {
	records := iclab.MergeShards(copyDays(days[final.StartDay : final.EndDay+1]))
	_, outs := tomo.BuildAndSolve(records, cfg)
	want := outcomeVerdict(outs, tomo.IdentifyCensors(outs, minCNFs))
	got := outcomeVerdict(final.Outcomes, final.Identified)
	if err := got.diff(want); err != nil {
		return fmt.Errorf("final window [%d, %d] differs from a batch rebuild: %w", final.StartDay, final.EndDay, err)
	}
	return nil
}

// finish completes a traced world for one workload: the leakage timing of
// the workload's own localization, Evaluate timed on the workload's
// end-to-end result, and the glue left of the end-to-end run time once the
// traced layers on the workload's path are subtracted.
func (tw *tracedWorld) finish(wl workload, res *churntomo.Result, e2eMS float64) (map[string]float64, error) {
	v := map[string]float64{}
	for name, x := range tw.vals {
		v[name] = x
	}
	if wl.stream {
		v["leakage.analyze_ms"], v["leakage.leakers"] = tw.leakStreamMS, float64(tw.leakStream)
	} else {
		v["leakage.analyze_ms"], v["leakage.leakers"] = tw.leakBatchMS, float64(tw.leakBatch)
	}
	truth := res.Truth()
	if truth == nil {
		return nil, fmt.Errorf("end-to-end result carries no ground truth to evaluate against")
	}
	start := time.Now()
	ev := churntomo.Evaluate(res, truth)
	v["root.evaluate_ms"] = ms(start)
	v["eval.precision"], v["eval.recall"] = ev.Precision, ev.Recall

	path := []string{"iclab.merge_ms", "leakage.analyze_ms", "root.evaluate_ms"}
	switch {
	case !wl.replay:
		path = append(path, "scenario.build_ms", "iclab.measure_ms", "tomo.build_ms", "tomo.solve_ms", "tomo.identify_ms")
	case wl.stream:
		path = append(path, "dataset.decode_ms", "stream.push_ms")
	default:
		path = append(path, "dataset.decode_ms", "tomo.build_ms", "tomo.solve_ms", "tomo.identify_ms")
	}
	glue := e2eMS
	for _, name := range path {
		glue -= v[name]
	}
	v["root.glue_ms"] = glue
	return v, nil
}

// traceVerdict is the traced verdict of the workload's own localization.
func (tw *tracedWorld) traceVerdict(wl workload) verdict {
	if wl.stream {
		return tw.stream
	}
	return tw.batch
}
