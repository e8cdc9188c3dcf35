// Command churnlab runs the full reproduction pipeline and regenerates
// every table and figure from the paper's evaluation (§4).
//
// Usage:
//
//	churnlab [-scale small|default|paper] [-scenario NAME] [-seed N]
//	         [-input dataset.jsonl.gz]
//	         [-only table1,figure3,...] [-validate] [-eval] [-quiet]
//	         [-parallel N] [-matrix N]
//	         [-stream] [-window D] [-stride D]
//
// churnlab is the reference consumer of the unified Experiment API: it
// folds its flags into churntomo.New options, drives batch, matrix and
// streaming runs through one Experiment.Run call on a signal-cancelable
// context — Ctrl-C aborts the run promptly at the next stage/day/solve
// boundary — and prints every table and figure from the public Result.
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
// conflicts with -matrix and fails on an -input replay whose file lists
// no ground-truth censors; such a replay also prints no ground-truth
// validation block.
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
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"churntomo"
	"churntomo/internal/report"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is churnlab with its arguments and output streams passed in; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("churnlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "default", "experiment scale: small, default or paper")
	scenarioName := fs.String("scenario", churntomo.ScenarioBaseline,
		"world-construction preset (see `genlab -list` for the catalog)")
	seed := fs.Uint64("seed", 1, "master random seed")
	only := fs.String("only", "", "comma-separated subset: table1,figure1a,figure1b,figure2,figure3,figure4,table2,table3,figure5")
	validate := fs.Bool("validate", true, "score identified censors against ground truth")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	parallel := fs.Int("parallel", 0, "per-stage worker count (0 = all cores, 1 = serial); output is identical either way")
	matrix := fs.Int("matrix", 1, "run a seed sweep of N concurrent pipelines and print the aggregate")
	streamMode := fs.Bool("stream", false, "replay the scenario day by day and print the window timeline")
	window := fs.Int("window", 0, "streaming window width in days (0 = cumulative)")
	stride := fs.Int("stride", 1, "days the streaming window advances between localizations")
	input := fs.String("input", "", "analyze this recorded dataset (genlab -export) instead of synthesizing one")
	eval := fs.Bool("eval", false, "append the ground-truth accuracy report (precision/recall/F1, leakage, candidate reduction)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	sc, err := churntomo.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "churnlab: unknown scale %q\n", *scale)
		return 2
	}

	// Contradictory combinations are hard errors: silent precedence would
	// run something other than what the command line asked for.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if conflicts := flagConflicts(explicit, *matrix, *streamMode, *only, *input, *eval); len(conflicts) > 0 {
		for _, c := range conflicts {
			fmt.Fprintf(stderr, "churnlab: %s\n", c)
		}
		return 2
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
		opts = append(opts, churntomo.WithObserver(churntomo.TextObserver(stderr)))
	}
	switch {
	case *matrix > 1:
		opts = append(opts, churntomo.WithSeedSweep(*matrix))
	case *streamMode:
		opts = append(opts, churntomo.WithWindow(*window), churntomo.WithStride(*stride))
	case exhibits(*only)("figure4"):
		// Figure 4's no-churn ablation is a second CNF build; pay for it
		// only when the figure is printed.
		opts = append(opts, churntomo.WithChurnAblation())
	}

	exp, err := churntomo.New(opts...)
	if err != nil {
		fmt.Fprintf(stderr, "churnlab: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := exp.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "churnlab: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "churnlab: %v\n", err)
		return 1
	}

	code := 0
	switch res.Mode {
	case churntomo.ModeMatrix:
		code = reportMatrix(stdout, stderr, res, *seed, *matrix, *quiet)
	case churntomo.ModeStreaming:
		code = reportStream(stdout, stderr, res, *window, *stride)
	default:
		reportBatch(stdout, res, *only, *validate)
	}
	if code != 0 {
		return code
	}
	if *eval {
		if res.Evaluation == nil {
			fmt.Fprintln(stderr, "churnlab: -eval: this run carries no ground truth (metadata-only replay?)")
			return 1
		}
		reportEval(stdout, res)
	}
	return 0
}

// exhibits parses an -only list into a predicate over exhibit names; an
// empty list selects every exhibit.
func exhibits(only string) func(name string) bool {
	if only == "" {
		return func(string) bool { return true }
	}
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		want[strings.TrimSpace(s)] = true
	}
	return func(name string) bool { return want[name] }
}

// reportEval prints the ground-truth accuracy report: how the verdict
// scores against the censor registry the generators planted — the
// evaluation the paper's authors could not perform on real traffic.
func reportEval(w io.Writer, res *churntomo.Result) {
	ev := res.Evaluation
	fmt.Fprintln(w, "== Accuracy vs ground truth ==")
	fmt.Fprintf(w, "censor registry: %d ASes (%d exercised during the period); identified: %d\n",
		ev.TrueCensors, ev.ExercisedCensors, ev.IdentifiedASes)
	fmt.Fprintf(w, "precision %.1f%%  recall %.1f%%  F1 %.3f  exercised recall %.1f%%\n",
		100*ev.Precision, 100*ev.Recall, ev.F1, 100*ev.ExercisedRecall)
	fmt.Fprintf(w, "verdict: %d true positives, %d false positives, %d missed censors\n",
		ev.TP, ev.FP, ev.Missed)
	if ev.FP > 0 {
		fmt.Fprintf(w, "false positives: %s (%d/%d on censored paths — leakage rate %.0f%%)\n",
			joinASNs(ev.FalsePositives, ", "), ev.LeakageFPs, ev.FP, 100*ev.LeakageRate)
	}
	if ev.MultipleCNFs > 0 {
		fmt.Fprintf(w, "candidate-set reduction: %.1f%% mean over %d ambiguous CNFs\n",
			100*ev.CandidateReduction, ev.MultipleCNFs)
	}

	if len(ev.Convergence) > 0 {
		fmt.Fprintln(w, "\n== Convergence (measurement days until stable) ==")
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
		fmt.Fprint(w, report.Table([]string{"AS", "Truth", "First day", "Stable from", "Windows"}, rows))
	}

	if cps := res.ChokePoints(8); len(cps) > 0 {
		fmt.Fprintln(w, "\n== Top structural chokepoints (betweenness) ==")
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
		fmt.Fprint(w, report.Table([]string{"AS", "Region", "Score", "Censor", "Identified"}, rows))
	}
	fmt.Fprintln(w)
}

// reportBatch prints the single-run evaluation: the paper's tables and
// figures, all read from the public Result. An -only list selects
// exhibits; without one the headline, the URL categories and (with
// validate) the ground-truth validation follow.
func reportBatch(w io.Writer, res *churntomo.Result, only string, validate bool) {
	show := exhibits(only)
	s, leak := res.Summary, res.Leakage // a batch run always has a leakage summary

	if show("table1") {
		fmt.Fprintln(w, "== Table 1: dataset characteristics ==")
		printTable1(w, s)
	}
	if show("figure1a") {
		fmt.Fprintln(w, "== Figure 1a: CNF solutions by granularity ==")
		printSolvability(w, figure1a(s.ByGranularity))
	}
	if show("figure1b") {
		fmt.Fprintln(w, "== Figure 1b: CNF solutions by anomaly ==")
		printSolvability(w, s.ByKind)
	}
	if show("figure1a") || show("figure1b") {
		fmt.Fprintf(w, "overall (%d CNFs): unique %.1f%%, none %.1f%%, multiple %.1f%%\n\n",
			s.CNFs, 100*frac(s.UniqueCNFs, s.CNFs), 100*frac(s.UnsatCNFs, s.CNFs), 100*frac(s.MultipleCNFs, s.CNFs))
	}
	if show("figure2") {
		fmt.Fprintln(w, "== Figure 2: candidate-set reduction (2+ solution CNFs) ==")
		d := figure2(res.Reductions)
		fmt.Fprint(w, report.CDF(d.cdf, "reduction %"))
		fmt.Fprintf(w, "mean reduction %.1f%%, no-elimination fraction %.1f%% over %d CNFs\n\n",
			100*d.mean, 100*d.noElimFrac, d.samples)
	}
	if show("figure3") {
		fmt.Fprintln(w, "== Figure 3: distinct AS paths per (src,dst) pair ==")
		printChurn(w, res.Churn)
	}
	if show("figure4") {
		fmt.Fprintln(w, "== Figure 4: solutions without path churn (ablation) ==")
		var groups []string
		var values [][]float64
		for i := range res.NoChurn {
			groups = append(groups, res.NoChurn[i].Period)
			values = append(values, res.NoChurn[i].Frac[:])
		}
		fmt.Fprint(w, report.Bars(groups, []string{"0", "1", "2", "3", "4", "5+"}, values))
		fmt.Fprintln(w)
	}
	if show("table2") {
		fmt.Fprintln(w, "== Table 2: regions with most censoring ASes ==")
		fmt.Fprint(w, report.Table([]string{"Region", "Censoring ASes", "Anomalies"}, table2(res.Censors, 8)))
		fmt.Fprintln(w)
	}
	if show("table3") {
		fmt.Fprintln(w, "== Table 3: censoring ASes with the most leakage ==")
		printTable3(w, leak.Leakers)
	}
	if show("figure5") {
		fmt.Fprintln(w, "== Figure 5: flow of censorship (country level) ==")
		printFigure5(w, leak)
	}
	if only == "" {
		fmt.Fprintln(w, "== Headline results ==")
		fmt.Fprintf(w, "scenario: %s (seed %d)\n", res.Config.Scenario, res.Config.Seed)
		fmt.Fprintf(w, "censoring ASes exactly identified: %d (in %d countries)\n",
			len(res.Censors), censorCountries(res.Censors))
		fmt.Fprintf(w, "censors leaking to other ASes: %d; to other countries: %d\n\n",
			leak.LeakToOtherASes, leak.LeakToOtherCountries)
		printCategories(w, res.Categories)
		if validate {
			printValidation(w, res)
		}
	}
}

// reportMatrix prints the aggregated identifications of a seed sweep:
// which ASes are named in how many runs, which survive every resampling,
// and the summed leakage. It returns 1 when a cell failed.
func reportMatrix(w, stderr io.Writer, res *churntomo.Result, seed uint64, n int, quiet bool) int {
	agg := res.Matrix
	if quiet {
		// With no observer registered nothing was reported; failures
		// still need to surface.
		for _, cell := range res.Cells {
			if cell.Err != nil {
				fmt.Fprintf(stderr, "churnlab: matrix cell %d (seed %d): %v\n",
					cell.Index, cell.Config.Seed, cell.Err)
			}
		}
	}

	fmt.Fprintf(w, "== Matrix aggregate: %d runs (%d failed), seeds %d..%d ==\n",
		agg.Runs, agg.Failed, seed, seed+uint64(n-1))
	fmt.Fprintf(w, "CNFs: %d total, %d unique-solution\n", agg.TotalCNFs, agg.UniqueCNFs)
	fmt.Fprintf(w, "leakage (summed): %d censors leak to other ASes, %d to other countries\n\n",
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
	fmt.Fprint(w, report.Table([]string{"AS", "Runs", "CNFs", "Anomalies"}, rows))
	fmt.Fprintf(w, "\nstable across every run: %s\n", joinASNs(agg.Stable, ", "))
	if agg.Failed > 0 {
		return 1
	}
	return 0
}

// reportStream prints the window timeline and the per-censor convergence
// report of a streaming replay. It returns 1 when no window filled.
func reportStream(w, stderr io.Writer, res *churntomo.Result, window, stride int) int {
	if len(res.Windows) == 0 {
		fmt.Fprintf(stderr, "churnlab: %d days never filled a %d-day window\n",
			res.Config.Days, window)
		return 1
	}

	mode := fmt.Sprintf("%d-day sliding", window)
	if window == 0 {
		mode = "cumulative"
	}
	fmt.Fprintf(w, "== Streaming timeline: %s window, stride %d, %d windows over %d days ==\n",
		mode, max(stride, 1), len(res.Windows), res.Config.Days)
	rows := [][]string{}
	var prev map[churntomo.ASN]*churntomo.IdentifiedCensor
	for _, win := range res.Windows {
		var gained, lost []string
		for asn := range win.Identified {
			if _, ok := prev[asn]; !ok {
				gained = append(gained, asn.String())
			}
		}
		for asn := range prev {
			if _, ok := win.Identified[asn]; !ok {
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
			fmt.Sprint(win.Index),
			fmt.Sprintf("%d..%d", win.StartDay, win.EndDay),
			fmt.Sprint(win.CNFs),
			fmt.Sprintf("%d/%d", win.Solved, win.Reused),
			fmt.Sprint(len(win.Identified)),
			strings.TrimSpace(delta),
		})
		prev = win.Identified
	}
	fmt.Fprint(w, report.Table([]string{"Win", "Days", "CNFs", "Solved/Reused", "Censors", "Δ"}, rows))

	fmt.Fprintln(w, "\n== Censor convergence (windows until identification stabilizes) ==")
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
	fmt.Fprint(w, report.Table([]string{"AS", "First seen", "Windows", "Stable from"}, crows))

	final := res.FinalWindow()
	solved, reused := 0, 0
	for _, win := range res.Windows {
		solved += win.Solved
		reused += win.Reused
	}
	fmt.Fprintf(w, "\nfinal window [day %d..%d]: %d censors over %d CNFs\n",
		final.StartDay, final.EndDay, len(final.Identified), final.CNFs)
	fmt.Fprintf(w, "incremental work: %d CNF solves, %d cache reuses (%.0f%% avoided)\n",
		solved, reused, 100*float64(reused)/float64(max(solved+reused, 1)))
	return 0
}

// table1Rows is Table 1's anomaly rows in the paper's order and wording.
var table1Rows = []struct {
	kind  churntomo.AnomalyKind
	label string
}{
	{churntomo.AnomalyDNS, "DNS anomalies"},
	{churntomo.AnomalySEQ, "SEQNO anomalies"},
	{churntomo.AnomalyTTL, "TTL anomalies"},
	{churntomo.AnomalyRST, "RESET anomalies"},
	{churntomo.AnomalyBlock, "Blockpages"},
}

func printTable1(w io.Writer, s churntomo.Summary) {
	fmt.Fprintf(w, "Period            %s\n", s.Period)
	fmt.Fprintf(w, "Unique URLs       %d\n", s.UniqueURLs)
	fmt.Fprintf(w, "AS Vantage Points %d\n", s.VantageASes)
	fmt.Fprintf(w, "Destination ASes  %d\n", s.DestinationASes)
	fmt.Fprintf(w, "Countries         %d\n", s.Countries)
	fmt.Fprintf(w, "Measurements      %d\n", s.Measurements)
	for _, r := range table1Rows {
		n := s.Anomalies[r.kind]
		fmt.Fprintf(w, "- w/%-15s %d (%.2f%%)\n", r.label, n, 100*frac(n, s.Measurements))
	}
	fmt.Fprintln(w)
}

// frac is n/total, 0 when total is 0.
func frac(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// figure1a drops the year granularity, as the paper's Figure 1a does.
func figure1a(rows []churntomo.ClassCounts) []churntomo.ClassCounts {
	var out []churntomo.ClassCounts
	for _, r := range rows {
		if r.Group != "year" {
			out = append(out, r)
		}
	}
	return out
}

func printSolvability(w io.Writer, rows []churntomo.ClassCounts) {
	var groups []string
	var values [][]float64
	for _, r := range rows {
		groups = append(groups, fmt.Sprintf("%s (%d CNFs)", r.Group, r.CNFs))
		values = append(values, []float64{frac(r.Unsat, r.CNFs), frac(r.Unique, r.CNFs), frac(r.Multiple, r.CNFs)})
	}
	fmt.Fprint(w, report.Bars(groups, []string{"0", "1", "2+"}, values))
	fmt.Fprintln(w)
}

// figure2Data is Figure 2: the CDF of candidate-set reduction over the
// multi-solution CNFs, its mean, and the fraction that eliminated nothing.
type figure2Data struct {
	cdf        []report.Point
	mean       float64 // paper: 95.2% of ASes
	noElimFrac float64 // paper: ~20% of multi-solution CNFs eliminate nothing
	samples    int
}

// figure2 summarizes Result.Reductions.
func figure2(reductions []float64) figure2Data {
	d := figure2Data{samples: len(reductions)}
	if len(reductions) == 0 {
		return d
	}
	pct := make([]float64, len(reductions))
	noElim := 0
	for i, f := range reductions {
		pct[i] = 100 * f
		if f == 0 {
			noElim++
		}
	}
	d.cdf = report.CDFOf(pct, []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	sum := 0.0
	for _, p := range pct {
		sum += p
	}
	d.mean = sum / float64(len(pct)) / 100
	d.noElimFrac = float64(noElim) / float64(len(pct))
	return d
}

func printChurn(w io.Writer, periods []churntomo.ChurnPeriod) {
	rows := [][]string{}
	for _, d := range periods {
		row := []string{d.Period}
		for b := 1; b <= 5; b++ {
			row = append(row, fmt.Sprintf("%.1f%%", 100*d.Buckets[b]))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*d.ChangedFrac), fmt.Sprint(d.Samples))
		rows = append(rows, row)
	}
	fmt.Fprint(w, report.Table(
		[]string{"period", "1", "2", "3", "4", "5+", "changed", "samples"}, rows))
	fmt.Fprintln(w)
}

// table2 groups censors (sorted by ASN, as Result.Censors is) by country,
// most censors first, ties by country code, and renders the top n rows:
// region name ("??" when unknown), censoring ASes, anomaly kinds.
func table2(censors []churntomo.Censor, n int) [][]string {
	type region struct {
		code, name string
		asns       []churntomo.ASN
		kinds      churntomo.AnomalySet
	}
	var regions []region
	index := map[string]int{}
	for _, c := range censors {
		code, name := c.Country, c.CountryName
		if code == "" {
			code = "??"
		}
		if name == "" {
			name = code
		}
		i, ok := index[code]
		if !ok {
			i = len(regions)
			index[code] = i
			regions = append(regions, region{code: code, name: name})
		}
		regions[i].asns = append(regions[i].asns, c.ASN)
		regions[i].kinds |= c.Kinds
	}
	sort.Slice(regions, func(i, j int) bool {
		if len(regions[i].asns) != len(regions[j].asns) {
			return len(regions[i].asns) > len(regions[j].asns)
		}
		return regions[i].code < regions[j].code
	})
	rows := [][]string{}
	for i := 0; i < len(regions) && i < n; i++ {
		r := regions[i]
		rows = append(rows, []string{r.name, joinASNs(r.asns, ", "), r.kinds.String()})
	}
	return rows
}

func printTable3(w io.Writer, leakers []churntomo.Leaker) {
	if len(leakers) > 10 {
		leakers = leakers[:10]
	}
	rows := [][]string{}
	for _, l := range leakers {
		name := l.CountryName
		if name == "" {
			name = l.Country
		}
		rows = append(rows, []string{
			l.ASN.String() + " " + l.Name, name,
			fmt.Sprint(l.LeakedASes), fmt.Sprint(l.LeakedCountries),
		})
	}
	fmt.Fprint(w, report.Table([]string{"AS", "Region", "Leaks (AS)", "Leaks (Country)"}, rows))
	fmt.Fprintln(w)
}

func printFigure5(w io.Writer, leak *churntomo.LeakageSummary) {
	type edge struct{ from, to string }
	weight := map[edge]int{}
	fromSet, toSet := map[string]bool{}, map[string]bool{}
	for _, f := range leak.Flow {
		weight[edge{f.From, f.To}] = f.Weight
		fromSet[f.From] = true
		toSet[f.To] = true
	}
	fmt.Fprint(w, report.Matrix("src", "dst", sortedKeys(fromSet), sortedKeys(toSet), func(r, c string) int {
		return weight[edge{r, c}]
	}))
	fmt.Fprintf(w, "regional fraction of non-CN leakage: %.0f%%\n\n", 100*leak.RegionalFracNonCN)
}

// censorCountries counts the countries hosting identified censors (the
// paper's "65 censoring ASes located in 30 different countries").
func censorCountries(censors []churntomo.Censor) int {
	set := map[string]bool{}
	for _, c := range censors {
		if c.Country != "" {
			set[c.Country] = true
		}
	}
	return len(set)
}

func printCategories(w io.Writer, cats []churntomo.CategoryCount) {
	fmt.Fprintln(w, "== Most-censored URL categories ==")
	rows := [][]string{}
	for _, c := range cats {
		rows = append(rows, []string{c.Category.String(), fmt.Sprint(c.Findings)})
	}
	fmt.Fprint(w, report.Table([]string{"Category", "(censor, URL) findings"}, rows))
	fmt.Fprintln(w)
}

// printValidation prints the verdict against the ground-truth registry;
// a run without ground truth prints nothing.
func printValidation(w io.Writer, res *churntomo.Result) {
	ev := res.Evaluation
	if ev == nil {
		return
	}
	fmt.Fprintln(w, "== Ground-truth validation (not possible in the paper) ==")
	fmt.Fprintf(w, "identified: %d true censors, %d spurious; precision %.1f%%, registry recall %.1f%%\n",
		ev.TP, ev.FP, 100*ev.Precision, 100*ev.Recall)
	if len(ev.FalsePositives) > 0 {
		cnfs := map[churntomo.ASN]int{}
		for _, c := range res.Censors {
			cnfs[c.ASN] = c.CNFs
		}
		names := make([]string, len(ev.FalsePositives))
		for i, a := range ev.FalsePositives {
			names[i] = fmt.Sprintf("%v(%d cnfs)", a, cnfs[a])
		}
		fmt.Fprintf(w, "spurious: %s\n", strings.Join(names, ", "))
	}
	for _, c := range res.Censors {
		if c.TrueCensor {
			fmt.Fprintf(w, "true censor %v corroborated by %d CNFs\n", c.ASN, c.CNFs)
		}
	}
	fmt.Fprintln(w)
}

func joinASNs(asns []churntomo.ASN, sep string) string {
	names := make([]string, len(asns))
	for i, a := range asns {
		names[i] = a.String()
	}
	return strings.Join(names, sep)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
