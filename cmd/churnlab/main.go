// Command churnlab runs the full reproduction pipeline and regenerates
// every table and figure from the paper's evaluation (§4).
//
// Usage:
//
//	churnlab [-scale small|default|paper] [-scenario NAME] [-seed N]
//	         [-input dataset.jsonl.gz]
//	         [-only table1,figure3,...] [-validate]
//	         [-parallel N] [-matrix N]
//	         [-stream] [-window D] [-stride D]
//
// churnlab is the reference consumer of the unified Experiment API: it
// folds its flags into churntomo.New options and drives batch, matrix and
// streaming runs through one Experiment.Run call on a signal-cancelable
// context — Ctrl-C aborts the run promptly at the next stage/day/solve
// boundary.
//
// -input analyzes a recorded dataset (written by genlab -export or
// Result.Export) instead of synthesizing one: the file's world metadata —
// scenario label, seed, period, vantage/target/AS tables, ground truth —
// replaces the -scale/-scenario/-seed world, so those flags conflict with
// it, as does -matrix (a seed sweep would replay the same file N times).
// -stream composes with -input: the recorded days replay through the
// incremental windowed localizer exactly as a live run would.
//
// -scenario selects a world-construction preset from the scenario registry
// (paper-baseline, national-firewall, transit-leakage, bgp-storm,
// regional-outage, policy-flap, path-diverse, routing-shift,
// ecmp-multipath, chokepoint; `genlab -list` prints the catalog). The
// preset decides how the world is generated; -scale/-seed keep deciding
// its dimensions and randomness.
//
// -eval appends the ground-truth accuracy report: precision/recall/F1 of
// the identified censor set against the registry the generators planted,
// recall over the censors that actually fired, false-positive leakage
// (accused bystanders that sat on censored paths), mean candidate-set
// reduction over ambiguous CNFs, and the top structural chokepoints
// cross-referenced with the verdict. With -stream it adds per-censor
// convergence days. It needs a world that knows its censors, so it
// conflicts with -matrix and fails on a metadata-only -input replay.
//
// -parallel bounds the per-stage worker pools (0 = all cores, 1 = serial);
// results are identical at any setting. -matrix N runs a seed sweep of N
// whole pipelines concurrently and prints the aggregated identifications
// instead of the single-run evaluation.
//
// Contradictory flag combinations (-stream with -matrix, -window/-stride
// without -stream, -only or an explicit -validate in a mode that cannot
// honor them) are rejected with an error up front rather than silently
// resolved by precedence.
//
// -stream replays the scenario day by day through the streaming localizer
// and prints a per-window timeline plus per-censor convergence stats
// instead of the single-run evaluation. -window D localizes over the D most
// recent days (0 = cumulative: the window only grows, and the final window
// equals the batch result); -stride D advances the window D days between
// localizations. Only the CNFs each day boundary touches are re-solved;
// the timeline reports the solved/reused split per window.
//
// With no -only filter it prints the complete evaluation: Table 1 (dataset
// characteristics), Figures 1a/1b (CNF solvability), Figure 2 (candidate
// reduction CDF), Figure 3 (path churn), Figure 4 (no-churn ablation),
// Table 2 (censoring regions), Table 3 (top leakers) and Figure 5 (country
// flow), plus the ground-truth validation the paper could not perform.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"churntomo"
	"churntomo/internal/analysis"
	"churntomo/internal/anomaly"
	"churntomo/internal/leakage"
	"churntomo/internal/report"
	"churntomo/internal/sat"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
)

// flagConflicts returns the contradictory flag combinations in a parsed
// flag set, one message each. explicit holds the flag names the user set
// on the command line (flag.Visit); it distinguishes an explicit -validate
// or -stride from their defaults.
func flagConflicts(explicit map[string]bool, matrix int, stream bool, only string, input string, eval bool) []string {
	var conflicts []string
	if matrix < 1 {
		conflicts = append(conflicts, fmt.Sprintf("-matrix %d: sweep size must be >= 1", matrix))
	}
	if stream && matrix > 1 {
		conflicts = append(conflicts, "-stream and -matrix are mutually exclusive")
	}
	if eval && matrix > 1 {
		conflicts = append(conflicts, "-eval scores one run against its world's ground truth and contradicts -matrix, whose cells each have their own world; drop one")
	}
	if input != "" {
		for _, name := range []string{"scale", "scenario", "seed"} {
			if explicit[name] {
				conflicts = append(conflicts, fmt.Sprintf("-%s steers world synthesis and contradicts -input, which replays a recorded world; drop one", name))
			}
		}
		if matrix > 1 {
			conflicts = append(conflicts, "-matrix resamples the world per cell and contradicts -input, which would replay the same file every cell; drop one")
		}
	}
	if !stream && (explicit["window"] || explicit["stride"]) {
		conflicts = append(conflicts, "-window/-stride require -stream")
	}
	modal := func() string {
		if stream {
			return "-stream"
		}
		return "-matrix"
	}
	if only != "" && (stream || matrix > 1) {
		conflicts = append(conflicts, fmt.Sprintf("-only applies to single batch runs and contradicts %s; drop one", modal()))
	}
	if explicit["validate"] && (stream || matrix > 1) {
		conflicts = append(conflicts, fmt.Sprintf("-validate applies to single batch runs and contradicts %s; drop one", modal()))
	}
	return conflicts
}

func main() {
	scale := flag.String("scale", "default", "experiment scale: small, default or paper")
	scenarioName := flag.String("scenario", churntomo.ScenarioBaseline,
		"world-construction preset (see `genlab -list` for the catalog)")
	seed := flag.Uint64("seed", 1, "master random seed")
	only := flag.String("only", "", "comma-separated subset: table1,figure1a,figure1b,figure2,figure3,figure4,table2,table3,figure5")
	validate := flag.Bool("validate", true, "score identified censors against ground truth")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	parallel := flag.Int("parallel", 0, "per-stage worker count (0 = all cores, 1 = serial); output is identical either way")
	matrix := flag.Int("matrix", 1, "run a seed sweep of N concurrent pipelines and print the aggregate")
	streamMode := flag.Bool("stream", false, "replay the scenario day by day and print the window timeline")
	window := flag.Int("window", 0, "streaming window width in days (0 = cumulative)")
	stride := flag.Int("stride", 1, "days the streaming window advances between localizations")
	input := flag.String("input", "", "analyze this recorded dataset (genlab -export) instead of synthesizing one")
	eval := flag.Bool("eval", false, "append the ground-truth accuracy report (precision/recall/F1, leakage, candidate reduction)")
	flag.Parse()

	sc, err := churntomo.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "churnlab: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	// Contradictory combinations are hard errors: silent precedence would
	// run something other than what the command line asked for.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if conflicts := flagConflicts(explicit, *matrix, *streamMode, *only, *input, *eval); len(conflicts) > 0 {
		for _, c := range conflicts {
			fmt.Fprintf(os.Stderr, "churnlab: %s\n", c)
		}
		os.Exit(2)
	}

	// Fold the flags into one option list — every mode goes through the
	// same New(...).Run(ctx) entry point.
	workers := *parallel
	if *matrix > 1 && workers == 0 {
		// The matrix supplies the concurrency: one serial pipeline per
		// cell, rather than GOMAXPROCS cells each spawning GOMAXPROCS-wide
		// stage pools. An explicit -parallel still overrides per cell.
		workers = 1
	}
	var opts []churntomo.Option
	if *input != "" {
		// The recorded world replaces the synthesis flags wholesale.
		opts = []churntomo.Option{
			churntomo.WithInput(*input),
			churntomo.WithWorkers(workers),
		}
	} else {
		opts = []churntomo.Option{
			churntomo.WithScale(sc),
			churntomo.WithScenario(*scenarioName),
			churntomo.WithSeed(*seed),
			churntomo.WithWorkers(workers),
		}
	}
	if !*quiet {
		opts = append(opts, churntomo.WithObserver(churntomo.TextObserver(os.Stderr)))
	}
	switch {
	case *matrix > 1:
		opts = append(opts, churntomo.WithSeedSweep(*matrix))
	case *streamMode:
		opts = append(opts, churntomo.WithWindow(*window), churntomo.WithStride(*stride))
	}

	exp, err := churntomo.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "churnlab: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := exp.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "churnlab: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "churnlab: %v\n", err)
		os.Exit(1)
	}

	switch res.Mode {
	case churntomo.ModeMatrix:
		reportMatrix(res, *seed, *matrix, *quiet)
	case churntomo.ModeStreaming:
		reportStream(res, *window, *stride)
	default:
		reportBatch(res, *only, *validate)
	}
	if *eval {
		if res.Evaluation == nil {
			fmt.Fprintln(os.Stderr, "churnlab: -eval: this run carries no ground truth (metadata-only replay?)")
			os.Exit(1)
		}
		reportEval(res)
	}
}

// reportEval prints the ground-truth accuracy report: how the verdict
// scores against the censor registry the generators planted — the
// evaluation the paper's authors could not perform on real traffic.
func reportEval(res *churntomo.Result) {
	ev := res.Evaluation
	fmt.Println("== Accuracy vs ground truth ==")
	fmt.Printf("censor registry: %d ASes (%d exercised during the period); identified: %d\n",
		ev.TrueCensors, ev.ExercisedCensors, ev.IdentifiedASes)
	fmt.Printf("precision %.1f%%  recall %.1f%%  F1 %.3f  exercised recall %.1f%%\n",
		100*ev.Precision, 100*ev.Recall, ev.F1, 100*ev.ExercisedRecall)
	fmt.Printf("verdict: %d true positives, %d false positives, %d missed censors\n",
		ev.TP, ev.FP, ev.Missed)
	if ev.FP > 0 {
		names := make([]string, len(ev.FalsePositives))
		for i, a := range ev.FalsePositives {
			names[i] = a.String()
		}
		fmt.Printf("false positives: %s (%d/%d on censored paths — leakage rate %.0f%%)\n",
			strings.Join(names, ", "), ev.LeakageFPs, ev.FP, 100*ev.LeakageRate)
	}
	if ev.MultipleCNFs > 0 {
		fmt.Printf("candidate-set reduction: %.1f%% mean over %d ambiguous CNFs\n",
			100*ev.CandidateReduction, ev.MultipleCNFs)
	}

	if len(ev.Convergence) > 0 {
		fmt.Println("\n== Convergence (measurement days until stable) ==")
		rows := [][]string{}
		for _, c := range ev.Convergence {
			truth := "bystander"
			if c.TrueCensor {
				truth = "censor"
			}
			stable := "unstable"
			if c.StableDay >= 0 {
				stable = fmt.Sprintf("day %d", c.StableDay)
			}
			rows = append(rows, []string{
				c.ASN.String(), truth, fmt.Sprint(c.FirstDay), stable, fmt.Sprint(c.Windows),
			})
		}
		fmt.Print(report.Table([]string{"AS", "Truth", "First day", "Stable from", "Windows"}, rows))
	}

	if cps := res.ChokePoints(8); len(cps) > 0 {
		fmt.Println("\n== Top structural chokepoints (betweenness) ==")
		rows := [][]string{}
		for _, cp := range cps {
			mark := func(b bool) string {
				if b {
					return "yes"
				}
				return "-"
			}
			rows = append(rows, []string{
				cp.ASN.String() + " " + cp.Name, cp.Country,
				fmt.Sprintf("%.3f", cp.Score), mark(cp.TrueCensor), mark(cp.Identified),
			})
		}
		fmt.Print(report.Table([]string{"AS", "Region", "Score", "Censor", "Identified"}, rows))
	}
	fmt.Println()
}

// reportBatch prints the single-run evaluation: the paper's tables and
// figures over the full internal artifacts (res.Pipelines[0]), which the
// in-repo analysis helpers consume directly.
func reportBatch(res *churntomo.Result, only string, validate bool) {
	p := res.Pipelines[0]
	want := map[string]bool{}
	if only != "" {
		for _, s := range strings.Split(only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	show := func(name string) bool { return len(want) == 0 || want[name] }

	if show("table1") {
		fmt.Println("== Table 1: dataset characteristics ==")
		fmt.Println(p.Dataset.Stats.String())
	}
	if show("figure1a") {
		fmt.Println("== Figure 1a: CNF solutions by granularity ==")
		printSolvability(analysis.Figure1a(p.Outcomes))
	}
	if show("figure1b") {
		fmt.Println("== Figure 1b: CNF solutions by anomaly ==")
		printSolvability(analysis.Figure1b(p.Outcomes))
	}
	if show("figure1a") || show("figure1b") {
		frac, n := analysis.OverallSolvability(p.Outcomes)
		fmt.Printf("overall (%d CNFs): unique %.1f%%, none %.1f%%, multiple %.1f%%\n\n",
			n, 100*frac[sat.Unique], 100*frac[sat.Unsat], 100*frac[sat.Multiple])
	}
	if show("figure2") {
		fmt.Println("== Figure 2: candidate-set reduction (2+ solution CNFs) ==")
		d := analysis.Figure2(p.Outcomes)
		fmt.Print(report.CDF(d.CDF, "reduction %"))
		fmt.Printf("mean reduction %.1f%%, no-elimination fraction %.1f%% over %d CNFs\n\n",
			100*d.Mean, 100*d.NoElimFrac, d.Samples)
	}
	if show("figure3") {
		fmt.Println("== Figure 3: distinct AS paths per (src,dst) pair ==")
		printChurn(res)
	}
	if show("figure4") {
		fmt.Println("== Figure 4: solutions without path churn (ablation) ==")
		rows := analysis.Figure4(p.Dataset.Records, p.Config.Workers)
		var groups []string
		var values [][]float64
		for _, r := range rows {
			groups = append(groups, r.Gran.String())
			values = append(values, r.Frac[:])
		}
		fmt.Print(report.Bars(groups, []string{"0", "1", "2", "3", "4", "5+"}, values))
		fmt.Println()
	}
	if show("table2") {
		fmt.Println("== Table 2: regions with most censoring ASes ==")
		printTable2(p)
	}
	if show("table3") {
		fmt.Println("== Table 3: censoring ASes with the most leakage ==")
		printTable3(p)
	}
	if show("figure5") {
		fmt.Println("== Figure 5: flow of censorship (country level) ==")
		printFigure5(p)
	}
	if len(want) == 0 {
		printHeadline(p)
		printCategories(p)
	}
	if validate && len(want) == 0 {
		printValidation(p)
	}
}

// reportMatrix prints the aggregated identifications of a seed sweep:
// which ASes are named in how many runs, which survive every resampling,
// and the summed leakage.
func reportMatrix(res *churntomo.Result, seed uint64, n int, quiet bool) {
	agg := res.Matrix
	if quiet {
		// With no observer registered nothing was reported; failures
		// still need to surface.
		for _, cell := range res.Cells {
			if cell.Err != nil {
				fmt.Fprintf(os.Stderr, "churnlab: matrix cell %d (seed %d): %v\n",
					cell.Index, cell.Config.Seed, cell.Err)
			}
		}
	}

	fmt.Printf("== Matrix aggregate: %d runs (%d failed), seeds %d..%d ==\n",
		agg.Runs, agg.Failed, seed, seed+uint64(n-1))
	fmt.Printf("CNFs: %d total, %d unique-solution\n", agg.TotalCNFs, agg.UniqueCNFs)
	fmt.Printf("leakage (summed): %d censors leak to other ASes, %d to other countries\n\n",
		agg.LeakASes, agg.LeakCountries)

	rows := [][]string{}
	for _, c := range agg.Censors {
		rows = append(rows, []string{
			c.ASN.String(),
			fmt.Sprintf("%d/%d", c.Runs, agg.Runs),
			fmt.Sprint(c.CNFs),
			c.Kinds.String(),
		})
	}
	fmt.Print(report.Table([]string{"AS", "Runs", "CNFs", "Anomalies"}, rows))
	names := make([]string, len(agg.Stable))
	for i, asn := range agg.Stable {
		names[i] = asn.String()
	}
	fmt.Printf("\nstable across every run: %s\n", strings.Join(names, ", "))
	if agg.Failed > 0 {
		os.Exit(1)
	}
}

// reportStream prints the window timeline and the per-censor convergence
// report of a streaming replay.
func reportStream(res *churntomo.Result, window, stride int) {
	if len(res.Windows) == 0 {
		fmt.Fprintf(os.Stderr, "churnlab: %d days never filled a %d-day window\n",
			res.Config.Days, window)
		os.Exit(1)
	}

	mode := fmt.Sprintf("%d-day sliding", window)
	if window == 0 {
		mode = "cumulative"
	}
	fmt.Printf("== Streaming timeline: %s window, stride %d, %d windows over %d days ==\n",
		mode, max(stride, 1), len(res.Windows), res.Config.Days)
	rows := [][]string{}
	var prev map[churntomo.ASN]*churntomo.IdentifiedCensor
	for _, w := range res.Windows {
		var gained, lost []string
		for asn := range w.Identified {
			if _, ok := prev[asn]; !ok {
				gained = append(gained, asn.String())
			}
		}
		for asn := range prev {
			if _, ok := w.Identified[asn]; !ok {
				lost = append(lost, asn.String())
			}
		}
		sort.Strings(gained)
		sort.Strings(lost)
		delta := strings.Join(gained, " ")
		if len(lost) > 0 {
			delta += " -" + strings.Join(lost, " -")
		}
		rows = append(rows, []string{
			fmt.Sprint(w.Index),
			fmt.Sprintf("%d..%d", w.StartDay, w.EndDay),
			fmt.Sprint(w.CNFs),
			fmt.Sprintf("%d/%d", w.Solved, w.Reused),
			fmt.Sprint(len(w.Identified)),
			strings.TrimSpace(delta),
		})
		prev = w.Identified
	}
	fmt.Print(report.Table([]string{"Win", "Days", "CNFs", "Solved/Reused", "Censors", "Δ"}, rows))

	fmt.Println("\n== Censor convergence (windows until identification stabilizes) ==")
	crows := [][]string{}
	for _, c := range res.Convergence {
		stable := "unstable"
		if c.StableFrom >= 0 {
			stable = fmt.Sprintf("window %d", c.StableFrom)
		}
		crows = append(crows, []string{
			c.ASN.String(),
			fmt.Sprint(c.FirstWindow),
			fmt.Sprintf("%d/%d", c.Windows, len(res.Windows)),
			stable,
		})
	}
	fmt.Print(report.Table([]string{"AS", "First seen", "Windows", "Stable from"}, crows))

	final := res.FinalWindow()
	solved, reused := 0, 0
	for _, w := range res.Windows {
		solved += w.Solved
		reused += w.Reused
	}
	fmt.Printf("\nfinal window [day %d..%d]: %d censors over %d CNFs\n",
		final.StartDay, final.EndDay, len(final.Identified), final.CNFs)
	fmt.Printf("incremental work: %d CNF solves, %d cache reuses (%.0f%% avoided)\n",
		solved, reused, 100*float64(reused)/float64(max(solved+reused, 1)))
}

func printSolvability(rows []analysis.SolvabilityRow) {
	var groups []string
	var values [][]float64
	for _, r := range rows {
		groups = append(groups, fmt.Sprintf("%s (%d CNFs)", r.Group, r.CNFs))
		values = append(values, r.Frac[:])
	}
	fmt.Print(report.Bars(groups, []string{"0", "1", "2+"}, values))
	fmt.Println()
}

func printChurn(res *churntomo.Result) {
	rows := [][]string{}
	for _, d := range res.Churn {
		row := []string{d.Period}
		for b := 1; b <= 5; b++ {
			row = append(row, fmt.Sprintf("%.1f%%", 100*d.Buckets[b]))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*d.ChangedFrac), fmt.Sprint(d.Samples))
		rows = append(rows, row)
	}
	fmt.Print(report.Table(
		[]string{"period", "1", "2", "3", "4", "5+", "changed", "samples"}, rows))
	fmt.Println()
}

func printTable2(p *churntomo.Pipeline) {
	rows := [][]string{}
	for _, r := range analysis.Table2(p.Identified, p.Graph, 8) {
		asns := make([]string, len(r.ASNs))
		for i, a := range r.ASNs {
			asns[i] = a.String()
		}
		name := r.Country
		if c, ok := topology.CountryByCode(r.Country); ok {
			name = c.Name
		}
		rows = append(rows, []string{name, strings.Join(asns, ", "), r.Kinds.String()})
	}
	fmt.Print(report.Table([]string{"Region", "Censoring ASes", "Anomalies"}, rows))
	fmt.Println()
}

func printTable3(p *churntomo.Pipeline) {
	rows := [][]string{}
	for _, l := range analysis.Table3(p.Leakage, p.Graph, 10) {
		name := l.Country
		if c, ok := topology.CountryByCode(l.Country); ok {
			name = c.Name
		}
		rows = append(rows, []string{
			l.ASN.String() + " " + l.Name, name,
			fmt.Sprint(l.LeakedASes), fmt.Sprint(l.LeakedCountries),
		})
	}
	fmt.Print(report.Table([]string{"AS", "Region", "Leaks (AS)", "Leaks (Country)"}, rows))
	fmt.Println()
}

func printFigure5(p *churntomo.Pipeline) {
	edges := p.Leakage.FlowEdges()
	fromSet, toSet := map[string]bool{}, map[string]bool{}
	for _, e := range edges {
		fromSet[e.Edge.From] = true
		toSet[e.Edge.To] = true
	}
	froms := sortedKeys(fromSet)
	tos := sortedKeys(toSet)
	fmt.Print(report.Matrix("src", "dst", froms, tos, func(r, c string) int {
		return p.Leakage.Flow[leakage.FlowEdge{From: r, To: c}]
	}))
	fmt.Printf("regional fraction of non-CN leakage: %.0f%%\n\n",
		100*p.Leakage.RegionalFrac(p.Graph, "CN"))
}

func printHeadline(p *churntomo.Pipeline) {
	fmt.Println("== Headline results ==")
	fmt.Printf("scenario: %s (seed %d)\n", p.Config.Scenario, p.Config.Seed)
	fmt.Printf("censoring ASes exactly identified: %d (in %d countries)\n",
		len(p.Identified), analysis.CensorCountries(p.Identified, p.Graph))
	fmt.Printf("censors leaking to other ASes: %d; to other countries: %d\n",
		p.Leakage.LeakToOtherASes(), p.Leakage.LeakToOtherCountries())
	fmt.Println()
}

func printCategories(p *churntomo.Pipeline) {
	urlCat := map[string]webcat.Category{}
	for _, t := range p.Scenario.Targets {
		urlCat[t.URL.Host] = t.URL.Category
	}
	counts := analysis.CategoryCensorship(p.Identified, urlCat)
	type kv struct {
		cat webcat.Category
		n   int
	}
	var all []kv
	for c, n := range counts {
		all = append(all, kv{c, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].cat < all[j].cat
	})
	fmt.Println("== Most-censored URL categories ==")
	rows := [][]string{}
	for _, e := range all {
		rows = append(rows, []string{e.cat.String(), fmt.Sprint(e.n)})
	}
	fmt.Print(report.Table([]string{"Category", "(censor, URL) findings"}, rows))
	fmt.Println()
}

func printValidation(p *churntomo.Pipeline) {
	v := analysis.Validate(p.Identified, p.Censors)
	fmt.Println("== Ground-truth validation (not possible in the paper) ==")
	fmt.Printf("identified: %d true censors, %d spurious; precision %.1f%%, registry recall %.1f%%\n",
		v.TruePositives, v.FalsePositives, 100*v.Precision, 100*v.Recall)
	if len(v.Spurious) > 0 {
		names := make([]string, len(v.Spurious))
		for i, a := range v.Spurious {
			names[i] = fmt.Sprintf("%v(%d cnfs)", a, p.Identified[a].CNFs)
		}
		fmt.Printf("spurious: %s\n", strings.Join(names, ", "))
	}
	// Sorted iteration: map order would shuffle these lines between runs,
	// breaking the byte-identical-output determinism contract.
	asns := make([]churntomo.ASN, 0, len(p.Identified))
	for asn := range p.Identified {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		if _, ok := p.Censors.Policy(asn); ok {
			fmt.Printf("true censor %v corroborated by %d CNFs\n", asn, p.Identified[asn].CNFs)
		}
	}
	fmt.Println()
	_ = anomaly.Kinds // keep the import for future per-kind validation output
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
