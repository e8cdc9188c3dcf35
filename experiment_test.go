package churntomo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"churntomo/internal/iclab"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/webcat"
)

// --- Option validation -----------------------------------------------------

func TestNewValidatesOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"negative workers", []Option{WithWorkers(-1)}, "WithWorkers"},
		{"negative window", []Option{WithWindow(-5)}, "WithWindow"},
		{"negative stride", []Option{WithStride(-2)}, "WithStride"},
		{"zero days", []Option{WithDays(0)}, "WithDays"},
		{"negative mincnfs", []Option{WithMinCNFs(-1)}, "WithMinCNFs"},
		{"zero seed sweep", []Option{WithSeedSweep(0)}, "WithSeedSweep"},
		{"empty scale sweep", []Option{WithScaleSweep()}, "WithScaleSweep"},
		{"negative scale factor", []Option{WithScaleSweep(1, -0.5)}, "WithScaleSweep"},
		{"empty configs", []Option{WithConfigs()}, "WithConfigs"},
		{"negative matrix workers", []Option{WithMatrixWorkers(-3)}, "WithMatrixWorkers"},
		{"nil observer", []Option{WithObserver(nil)}, "WithObserver"},
		{"nil option", []Option{nil}, "nil Option"},
		{"streaming plus matrix", []Option{WithWindow(7), WithSeedSweep(3)}, "mutually exclusive"},
		{"two matrix shapes", []Option{WithSeedSweep(2), WithScaleSweep(0.5, 1)}, "at most one"},
	}
	for _, tc := range cases {
		_, err := New(tc.opts...)
		if err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewModeResolution(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want Mode
	}{
		{"default", nil, ModeBatch},
		{"window", []Option{WithWindow(7)}, ModeStreaming},
		{"stride only", []Option{WithStride(3)}, ModeStreaming},
		{"cumulative", []Option{WithStreaming()}, ModeStreaming},
		{"seed sweep", []Option{WithSeedSweep(4)}, ModeMatrix},
		{"seed sweep of one", []Option{WithSeedSweep(1)}, ModeBatch},
		{"scale sweep", []Option{WithScaleSweep(0.5, 1, 2)}, ModeMatrix},
		{"explicit cells", []Option{WithConfigs(SmallConfig())}, ModeMatrix},
	}
	for _, tc := range cases {
		e, err := New(tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Mode() != tc.want {
			t.Errorf("%s: mode %v, want %v", tc.name, e.Mode(), tc.want)
		}
	}
}

// --- Result consistency ----------------------------------------------------

// identifiedBytes flattens an identification map into a deterministic byte
// string, so "byte-identical" is literal.
func identifiedBytes(identified map[ASN]*IdentifiedCensor) []byte {
	asns := make([]ASN, 0, len(identified))
	for asn := range identified {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var buf bytes.Buffer
	for _, asn := range asns {
		c := identified[asn]
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		fmt.Fprintf(&buf, "%v kinds=%v cnfs=%d urls=%v\n", asn, c.Kinds, c.CNFs, urls)
	}
	return buf.Bytes()
}

// TestExperimentMatchesLegacyRun pins a batch Result's public views to
// the run's own pipeline artifacts: Identified, Censors, Summary and
// Leakage all describe the same localization.
func TestExperimentMatchesLegacyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	res := runDirect(t, WithConfig(testConfig()))
	if res.Mode != ModeBatch {
		t.Fatalf("mode %v, want batch", res.Mode)
	}
	p := res.cell
	if got, want := identifiedBytes(res.Identified), identifiedBytes(p.identified); !bytes.Equal(got, want) {
		t.Errorf("Result.Identified diverges from the pipeline's:\n%s\nvs\n%s", got, want)
	}

	// The public Censors view carries the same identifications.
	if len(res.Censors) != len(res.Identified) {
		t.Fatalf("%d Censors for %d Identified", len(res.Censors), len(res.Identified))
	}
	for _, c := range res.Censors {
		raw := res.Identified[c.ASN]
		if raw == nil || raw.CNFs != c.CNFs || raw.Kinds != c.Kinds || len(raw.URLs) != len(c.URLs) {
			t.Errorf("censor %v diverges from its Identified record", c.ASN)
		}
		if c.Name == "" || c.Country == "" {
			t.Errorf("censor %v missing topology context (%q, %q)", c.ASN, c.Name, c.Country)
		}
	}

	// Summary agrees with the pipeline artifacts.
	if res.Summary.Measurements != p.dataset.Stats.Measurements {
		t.Errorf("Summary.Measurements %d, want %d", res.Summary.Measurements, p.dataset.Stats.Measurements)
	}
	if res.Summary.CNFs != len(p.outcomes) {
		t.Errorf("Summary.CNFs %d, want %d", res.Summary.CNFs, len(p.outcomes))
	}
	if got := res.Summary.UnsatCNFs + res.Summary.UniqueCNFs + res.Summary.MultipleCNFs; got != res.Summary.CNFs {
		t.Errorf("CNF class split sums to %d of %d", got, res.Summary.CNFs)
	}
	if res.Leakage == nil {
		t.Fatal("batch result has no leakage summary")
	}
	if res.Leakage.LeakToOtherASes != p.leakage.LeakToOtherASes() ||
		res.Leakage.LeakToOtherCountries != p.leakage.LeakToOtherCountries() {
		t.Errorf("leakage summary (%d,%d) diverges from analysis (%d,%d)",
			res.Leakage.LeakToOtherASes, res.Leakage.LeakToOtherCountries,
			p.leakage.LeakToOtherASes(), p.leakage.LeakToOtherCountries())
	}
	if len(res.Churn) == 0 {
		t.Error("no churn distributions in result")
	}
	checkSummaryGroups(t, res.Summary, p)
	checkReductions(t, res.Reductions, p)
	checkCategories(t, res.Categories, p)
}

// checkSummaryGroups recounts Figures 1a and 1b from a batch cell's
// outcomes: the groups in figure order, empty ones left out.
func checkSummaryGroups(t *testing.T, s Summary, c *cell) {
	t.Helper()
	if s.Anomalies != c.dataset.Stats.Anomalies {
		t.Errorf("Summary.Anomalies %v, want the dataset's %v", s.Anomalies, c.dataset.Stats.Anomalies)
	}
	byGran, byKind := map[string]*ClassCounts{}, map[string]*ClassCounts{}
	count := func(m map[string]*ClassCounts, group string, o tomo.Outcome) {
		if m[group] == nil {
			m[group] = &ClassCounts{Group: group}
		}
		m[group].add(o.Class)
	}
	for _, o := range c.outcomes {
		count(byGran, o.Inst.Key.Slice.Gran.String(), o)
		count(byKind, o.Inst.Key.Kind.String(), o)
	}
	inOrder := func(m map[string]*ClassCounts, order ...string) []ClassCounts {
		var out []ClassCounts
		for _, g := range order {
			if m[g] != nil {
				out = append(out, *m[g])
			}
		}
		return out
	}
	if want := inOrder(byGran, "day", "week", "month", "year"); len(want) < 2 || !reflect.DeepEqual(s.ByGranularity, want) {
		t.Errorf("ByGranularity = %+v, recounted %+v", s.ByGranularity, want)
	}
	if want := inOrder(byKind, "block", "dns", "rst", "seq", "ttl"); len(want) < 2 || !reflect.DeepEqual(s.ByKind, want) {
		t.Errorf("ByKind = %+v, recounted %+v", s.ByKind, want)
	}
}

// checkReductions pins Result.Reductions to the Multiple outcomes, in
// order: a fraction is 0 exactly when the CNF eliminated nothing.
func checkReductions(t *testing.T, got []float64, c *cell) {
	t.Helper()
	var want []float64
	for _, o := range c.outcomes {
		if o.Class == sat.Multiple {
			want = append(want, o.ReductionFrac())
			if (o.Eliminated == 0) != (o.ReductionFrac() == 0) {
				t.Errorf("CNF %v eliminated %d of %d but has fraction %v", o.Inst.Key, o.Eliminated, o.TotalVars, o.ReductionFrac())
			}
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("Reductions %v, want the %d Multiple outcomes' fractions %v", got, len(want), want)
	}
}

// checkCategories recounts the (censor, URL) findings per category and
// checks the ranking: most findings first, ties by category code.
func checkCategories(t *testing.T, got []CategoryCount, c *cell) {
	t.Helper()
	urlCat := map[string]Category{}
	for _, tg := range c.world.Targets {
		urlCat[tg.URL.Host] = tg.URL.Category
	}
	want := map[Category]int{}
	for _, id := range c.identified {
		for url := range id.URLs {
			if cat, ok := urlCat[url]; ok {
				want[cat]++
			}
		}
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d categories, recounted %d", len(got), len(want))
	}
	for i, cc := range got {
		if want[cc.Category] != cc.Findings {
			t.Errorf("%v: %d findings, recounted %d", cc.Category, cc.Findings, want[cc.Category])
		}
		if i > 0 {
			prev := got[i-1]
			if prev.Findings < cc.Findings || (prev.Findings == cc.Findings && prev.Category >= cc.Category) {
				t.Errorf("categories out of order at %d: %+v before %+v", i, prev, cc)
			}
		}
	}
}

// TestSummaryOfSplitsCNFs checks Figures 1a and 1b's counts on three
// hand-built CNFs, one per class: every group's classes sum to its CNFs,
// and the groups come in figure order.
func TestSummaryOfSplitsCNFs(t *testing.T) {
	t0 := time.Date(2016, 5, 10, 8, 0, 0, 0, time.UTC)
	rec := func(v ASN, url string, at time.Time, path []ASN, kind ...AnomalyKind) iclab.Record {
		var kinds AnomalySet
		for _, k := range kind {
			kinds = kinds.Add(k)
		}
		return iclab.Record{Vantage: v, URL: url, At: at, ASPath: path, Anomalies: kinds}
	}
	records := []iclab.Record{
		// Unique: censor 20 pinned by a churned clean path.
		rec(1, "a.com", t0, []ASN{10, 20, 30}, AnomalyTTL),
		rec(1, "a.com", t0.Add(time.Hour), []ASN{10, 25, 30}),
		// Multiple: an under-constrained RST positive.
		rec(2, "b.com", t0, []ASN{11, 21, 31}, AnomalyRST),
		rec(3, "b.com", t0, []ASN{12, 31}),
		// Unsat: conflicting SEQ observations of one path.
		rec(4, "c.com", t0, []ASN{13, 23}, AnomalySEQ),
		rec(4, "c.com", t0.Add(time.Hour), []ASN{13, 23}),
	}
	_, outcomes := tomo.BuildAndSolve(records, tomo.BuildConfig{Granularities: []timeslice.Granularity{timeslice.Day}})
	s := summaryOf(&cell{dataset: &iclab.Dataset{}}, outcomes)
	if s.CNFs != 3 || s.UnsatCNFs != 1 || s.UniqueCNFs != 1 || s.MultipleCNFs != 1 {
		t.Fatalf("summary %d CNFs (%d/%d/%d), want one per class", s.CNFs, s.UnsatCNFs, s.UniqueCNFs, s.MultipleCNFs)
	}
	if want := []ClassCounts{{"day", 3, 1, 1, 1}}; !reflect.DeepEqual(s.ByGranularity, want) {
		t.Errorf("ByGranularity = %+v, want %+v", s.ByGranularity, want)
	}
	want := []ClassCounts{{"rst", 1, 0, 0, 1}, {"seq", 1, 1, 0, 0}, {"ttl", 1, 0, 1, 0}}
	if !reflect.DeepEqual(s.ByKind, want) {
		t.Errorf("ByKind = %+v, want %+v", s.ByKind, want)
	}
}

// TestCategoriesOf checks the per-category count on hand-built values:
// unknown URLs are skipped, and ties rank by category code.
func TestCategoriesOf(t *testing.T) {
	identified := map[ASN]*IdentifiedCensor{
		1: {ASN: 1, URLs: map[string]bool{"a": true, "b": true, "c": true}},
		2: {ASN: 2, URLs: map[string]bool{"a": true, "zzz": true}},
	}
	var targets []iclab.Target
	for _, u := range []webcat.URL{
		{Host: "a", Category: webcat.Shopping}, {Host: "b", Category: webcat.News}, {Host: "c", Category: webcat.Ads},
	} {
		targets = append(targets, iclab.Target{URL: u})
	}
	got := categoriesOf(identified, targets)
	// Ads and News tie at one finding; Ads has the lower code.
	want := []CategoryCount{{webcat.Shopping, 2}, {webcat.Ads, 1}, {webcat.News, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("categoriesOf = %v, want %v", got, want)
	}
	if got := categoriesOf(nil, targets); got != nil {
		t.Errorf("no censors: %v, want nil", got)
	}
}

// TestExperimentStreamingMatchesBatch extends the streaming==batch
// guarantee to the new entry point: a cumulative streaming experiment's
// final window identifies exactly what the batch experiment does.
func TestExperimentStreamingMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	batch := runDirect(t, WithConfig(cfg))
	exp, err := New(WithConfig(cfg), WithStreaming())
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeStreaming {
		t.Fatalf("mode %v, want streaming", res.Mode)
	}
	if len(res.Windows) != cfg.Days {
		t.Fatalf("cumulative stride-1 replay emitted %d windows over %d days", len(res.Windows), cfg.Days)
	}
	final := res.FinalWindow()
	if final.StartDay != 0 || final.EndDay != cfg.Days-1 {
		t.Fatalf("final window covers [%d..%d], want [0..%d]", final.StartDay, final.EndDay, cfg.Days-1)
	}
	if !bytes.Equal(identifiedBytes(res.Identified), identifiedBytes(batch.Identified)) {
		t.Error("streaming experiment's final identifications diverge from batch")
	}
	if !reflect.DeepEqual(final.Identified, res.Identified) {
		t.Error("Result.Identified is not the final window's set")
	}
	if len(res.Convergence) == 0 && len(res.Identified) > 0 {
		t.Error("censors identified but no convergence records")
	}
}

// TestExperimentMatrixMatchesRunner pins a seed-sweep Result's matrix
// summary and per-cell statuses to each other: same cells, same totals.
func TestExperimentMatrixMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	res := runDirect(t, WithConfig(matrixConfig()), WithSeedSweep(2), WithMatrixWorkers(2))
	if res.Mode != ModeMatrix || res.Matrix == nil {
		t.Fatalf("mode %v, matrix %v", res.Mode, res.Matrix)
	}
	if res.Matrix.Runs != 2 || res.Matrix.Failed != 0 {
		t.Fatalf("runs/failed (%d,%d), want (2,0)", res.Matrix.Runs, res.Matrix.Failed)
	}
	cellCNFs := 0
	for _, cs := range res.Cells {
		cellCNFs += cs.CNFs
	}
	if res.Matrix.TotalCNFs != cellCNFs {
		t.Fatalf("TotalCNFs %d, cells sum to %d", res.Matrix.TotalCNFs, cellCNFs)
	}
	if len(res.Cells) != 2 || res.cell != nil {
		t.Fatalf("%d cells, want 2 and no single-cell artifacts", len(res.Cells))
	}
	for i, cs := range res.Cells {
		if cs.Index != i || cs.Err != nil || cs.CNFs == 0 {
			t.Errorf("cell %d malformed: %+v", i, cs)
		}
	}
}

// TestExperimentMatrixSurvivesFailedCell: a broken matrix cell is
// reported in its CellStatus and MatrixSummary.Failed, not fatal.
func TestExperimentMatrixSurvivesFailedCell(t *testing.T) {
	good := matrixConfig()
	bad := matrixConfig()
	bad.ASes = 20
	bad.Vantages = 1000 // impossible: more vantages than stubs
	exp, err := New(WithConfigs(bad, good), WithMatrixWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix.Runs != 1 || res.Matrix.Failed != 1 {
		t.Fatalf("runs=%d failed=%d, want 1/1", res.Matrix.Runs, res.Matrix.Failed)
	}
	if res.Cells[0].Err == nil || res.Cells[1].Err != nil {
		t.Fatalf("cell errors misplaced: %v / %v", res.Cells[0].Err, res.Cells[1].Err)
	}
	if res.Cells[0].CNFs != 0 || res.Cells[1].CNFs == 0 {
		t.Fatal("CNF counts misplaced across failed/good cells")
	}
}

// --- Event stream ----------------------------------------------------------

// TestEventStreamAndTextRendering checks the typed event stream's shape
// and that TextObserver renders it as one progress line per stage.
func TestEventStreamAndTextRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	var events []Event
	var text bytes.Buffer
	exp, err := New(
		WithConfig(cfg),
		WithObserver(func(ev Event) { events = append(events, ev) }),
		WithObserver(TextObserver(&text)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	wantStages := []Stage{StageTopology, StageTimeline, StageCensors,
		StageIPASMap, StageScenario, StageMeasure, StageSolve}
	if len(events) != len(wantStages) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantStages), events)
	}
	for i, ev := range events {
		if ev.Stage != wantStages[i] {
			t.Errorf("event %d is %v, want %v", i, ev.Stage, wantStages[i])
		}
		if ev.Cell != -1 || ev.Day != -1 || ev.Window != -1 {
			t.Errorf("event %d has stray indices: %+v", i, ev)
		}
		if ev.Stats.Seed != cfg.Seed {
			t.Errorf("event %d seed %d, want %d", i, ev.Stats.Seed, cfg.Seed)
		}
	}

	want := fmt.Sprintf("generating topology (%d ASes, %d countries)\n", cfg.ASes, cfg.Countries) +
		fmt.Sprintf("generating churn timeline (%d days)\n", cfg.Days) +
		"placing censors\n" +
		"building historical IP-to-AS database\n" +
		fmt.Sprintf("selecting %d vantages and %d URLs\n", cfg.Vantages, cfg.URLs) +
		"running measurement platform\n" +
		"building and solving CNFs\n"
	if text.String() != want {
		t.Errorf("TextObserver output diverges from the expected progress lines:\n%q\nwant\n%q", text.String(), want)
	}
}

// TestStreamingEventStream checks the per-day/per-window events.
func TestStreamingEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	days, windows := 0, 0
	lastWindow := -1
	exp, err := New(WithConfig(cfg), WithWindow(12), WithStride(3),
		WithObserver(func(ev Event) {
			switch ev.Stage {
			case StageDay:
				if ev.Day != days {
					t.Errorf("day event %d out of order (got ordinal %d)", days, ev.Day)
				}
				days++
			case StageWindow:
				if ev.Window != lastWindow+1 {
					t.Errorf("window event %d out of order (got ordinal %d)", lastWindow+1, ev.Window)
				}
				lastWindow = ev.Window
				windows++
				if ev.Stats.CNFs == 0 && ev.Stats.Censors > 0 {
					t.Errorf("window %d names censors with zero CNFs", ev.Window)
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Errorf("observed %d day events over %d days", days, cfg.Days)
	}
	if windows != len(res.Windows) {
		t.Errorf("observed %d window events for %d windows", windows, len(res.Windows))
	}
}

// --- Cancellation ----------------------------------------------------------

// settleGoroutines polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers), failing after the deadline.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runCanceled runs the experiment on a context that an observer cancels
// at the given stage, under a watchdog, and asserts the run returns
// context.Canceled promptly and leaks no goroutines.
func runCanceled(t *testing.T, cancelAt Stage, opts ...Option) {
	t.Helper()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts = append(opts, WithObserver(func(ev Event) {
		if ev.Stage == cancelAt {
			cancel()
		}
	}))
	exp, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := exp.Run(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at %v: Run returned %v, want context.Canceled", cancelAt, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("canceled at %v: Run did not return within the watchdog", cancelAt)
	}
	settleGoroutines(t, before)
}

func TestRunCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	cfg.Workers = 4
	t.Run("before measurement", func(t *testing.T) {
		runCanceled(t, StageMeasure, WithConfig(cfg))
	})
	t.Run("before solve", func(t *testing.T) {
		runCanceled(t, StageSolve, WithConfig(cfg))
	})
	t.Run("mid substrate", func(t *testing.T) {
		runCanceled(t, StageCensors, WithConfig(cfg))
	})
	t.Run("mid stream replay", func(t *testing.T) {
		runCanceled(t, StageWindow, WithConfig(cfg), WithWindow(10), WithStride(5))
	})
	t.Run("mid matrix", func(t *testing.T) {
		runCanceled(t, StageCell, WithConfig(matrixConfig()), WithSeedSweep(4), WithMatrixWorkers(2))
	})
}

func TestRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp, err := New(WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := exp.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a pre-canceled ctx returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled Run took %v", elapsed)
	}
}

func TestRunDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	exp, err := New(WithConfig(testConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run past its deadline returned %v", err)
	}
	settleGoroutines(t, before)
}

func TestRunNilContext(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	exp, err := New(WithConfig(matrixConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("Run(nil) = %v", err)
	}
}
