package churntomo

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"churntomo/internal/iclab"
	"churntomo/internal/tomo"
)

// exportTestConfig is a fast configuration for export/import round trips.
func exportTestConfig() Config {
	cfg := testConfig()
	cfg.Days = 20
	return cfg
}

// runDirect executes one experiment over the live ScenarioSource.
func runDirect(t *testing.T, opts ...Option) *Result {
	t.Helper()
	exp, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDatasetRoundTripIdentifications is the acceptance gate: exporting a
// run's dataset, re-importing it through FileSource and localizing again
// must produce identifications byte-identical to the direct run — in
// batch mode here, in streaming mode below. `make dataset-check` runs it.
func TestDatasetRoundTripIdentifications(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end round trip")
	}
	direct := runDirect(t, WithConfig(exportTestConfig()))

	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}
	replayed := runDirect(t, WithInput(path))

	if len(direct.Identified) == 0 {
		t.Fatal("direct run identified no censors; round trip is vacuous")
	}
	if !reflect.DeepEqual(direct.Identified, replayed.Identified) {
		t.Errorf("identifications diverge: direct %v, replayed %v", direct.Identified, replayed.Identified)
	}
	// The reconstructed metadata graph and truth registry must enrich
	// identically: names, countries, ground-truth bits, leakage victims.
	if !reflect.DeepEqual(direct.Censors, replayed.Censors) {
		t.Errorf("censor enrichment diverges:\ndirect   %+v\nreplayed %+v", direct.Censors, replayed.Censors)
	}
	if !reflect.DeepEqual(direct.Summary, replayed.Summary) {
		t.Errorf("summaries diverge:\ndirect   %+v\nreplayed %+v", direct.Summary, replayed.Summary)
	}
	if !reflect.DeepEqual(direct.Leakage, replayed.Leakage) {
		t.Error("leakage analyses diverge")
	}
	if !reflect.DeepEqual(direct.Churn, replayed.Churn) {
		t.Error("churn distributions diverge")
	}
	if !reflect.DeepEqual(direct.ChurnByClass, replayed.ChurnByClass) {
		t.Error("churn-by-class distributions diverge")
	}
}

// TestDatasetRoundTripStreaming pins the streaming half of the acceptance
// criterion: a FileSource replay through the incremental engine emits the
// same window timeline and final identifications as streaming over the
// live ScenarioSource.
func TestDatasetRoundTripStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end round trip")
	}
	cfg := exportTestConfig()
	direct := runDirect(t, WithConfig(cfg), WithWindow(8), WithStride(4))

	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}
	replayed := runDirect(t, WithInput(path), WithWindow(8), WithStride(4))

	if len(direct.Windows) == 0 {
		t.Fatal("direct streaming run emitted no windows")
	}
	if !reflect.DeepEqual(direct.Windows, replayed.Windows) {
		t.Errorf("window timelines diverge: direct %d windows, replayed %d", len(direct.Windows), len(replayed.Windows))
	}
	if !reflect.DeepEqual(direct.Convergence, replayed.Convergence) {
		t.Error("convergence stats diverge")
	}
	if !reflect.DeepEqual(direct.Identified, replayed.Identified) {
		t.Error("final identifications diverge")
	}
}

// TestFileSourceSharedByConcurrentStreams feeds one *FileSource to two
// streaming experiments running at once. Both read the source's single
// decoded record table in place, so a stage that wrote to a record would
// race with the other run (`make race` runs this) or leak into its
// result. Each Result must equal a serial replay's.
func TestFileSourceSharedByConcurrentStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	direct := runDirect(t, WithConfig(exportTestConfig()))
	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}
	serial := runDirect(t, WithInput(path), WithWindow(8), WithStride(4))
	if len(serial.Windows) == 0 {
		t.Fatal("serial replay emitted no windows; test vacuous")
	}

	src := &FileSource{Path: path}
	results := make([]*Result, 2)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		exp, err := New(WithSource(src), WithWindow(8), WithStride(4))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = exp.Run(context.Background())
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res, serial) {
			t.Errorf("run %d over the shared source differs from the serial replay", i)
		}
	}
}

// TestInMemoryDatasetSource drives the public Source contract end to end:
// Result.Dataset's exported form, fed back through the generic (non
// fast-path) adapter as an in-memory *Dataset source, localizes
// identically. This is the path an external real-data ingester exercises.
func TestInMemoryDatasetSource(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end round trip")
	}
	direct := runDirect(t, WithConfig(exportTestConfig()))
	ds, err := direct.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Info.Days != direct.Config.Days || len(ds.Days) != ds.Info.Days {
		t.Fatalf("dataset period: Info.Days %d, batches %d, config %d", ds.Info.Days, len(ds.Days), direct.Config.Days)
	}
	replayed := runDirect(t, WithSource(ds))
	if len(direct.Identified) == 0 || !reflect.DeepEqual(direct.Identified, replayed.Identified) {
		t.Errorf("identifications diverge through the public Dataset source (direct %d, replayed %d)",
			len(direct.Identified), len(replayed.Identified))
	}
	if !reflect.DeepEqual(direct.Censors, replayed.Censors) {
		t.Error("censor enrichment diverges through the public Dataset source")
	}
}

// scribble overwrites, in place, every AS path hop and every truth act of
// a dataset's records: an edit a caller holding the Dataset may make.
func scribble(d *Dataset) {
	for _, day := range d.Days {
		for i := range day {
			for j := range day[i].ASPath {
				day[i].ASPath[j] = 1
			}
			for j := range day[i].TrueActs {
				day[i].TrueActs[j] = TruthAct{ASN: 1}
			}
		}
	}
}

// TestDatasetBoundariesCopyRecords pins the three places a public Dataset
// would otherwise share records with someone else: FileSource.Open (the
// decoded cache later runs read), Result.Dataset (the run's records) and a
// run over a caller's Dataset. Editing a returned or supplied Dataset in
// place must change no later run over the same FileSource, no Result's
// Truth and no later Result.Dataset.
func TestDatasetBoundariesCopyRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	direct := runDirect(t, WithConfig(exportTestConfig()))
	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}

	src := &FileSource{Path: path}
	before := runDirect(t, WithSource(src))
	opened, err := src.Open(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	scribble(opened)
	if after := runDirect(t, WithSource(src)); !reflect.DeepEqual(after, before) {
		t.Error("editing FileSource.Open's dataset changed a later run over the same source")
	}

	supplied, err := direct.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	fromSupplied := runDirect(t, WithSource(supplied))
	records := func(res *Result) string {
		t.Helper()
		d, err := res.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(d.Days)
	}
	type snapshot struct {
		truth   *GroundTruth
		records string
	}
	results := map[string]*Result{"the run": direct, "a run over a supplied Dataset": fromSupplied}
	was := map[string]snapshot{}
	for name, res := range results {
		if res.Truth() == nil || len(res.Truth().Exercised) == 0 {
			t.Fatalf("%s exercised no censor; test vacuous", name)
		}
		was[name] = snapshot{res.Truth(), records(res)}
	}
	returned, err := direct.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	scribble(returned)
	scribble(supplied)
	for name, res := range results {
		if !reflect.DeepEqual(res.Truth(), was[name].truth) {
			t.Errorf("editing a Dataset changed the Truth of %s", name)
		}
		if records(res) != was[name].records {
			t.Errorf("editing a Dataset changed the records Result.Dataset returns for %s", name)
		}
	}
}

// TestHandedOutDaysAreCapped appends a record to one day of every Dataset
// the package hands out. A run's days may be views of one table, so each
// handed-out day must be capped at its length: the append must leave the
// next day as it was, and later runs over the same source, and the
// Result's own Dataset, must be unchanged.
func TestHandedOutDaysAreCapped(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	ctx := context.Background()
	cfg := exportTestConfig()
	direct := runDirect(t, WithConfig(cfg))
	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path}
	before := runDirect(t, WithSource(src))
	exported, err := direct.Dataset()
	if err != nil {
		t.Fatal(err)
	}

	appendTo := func(name string, d *Dataset, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		day := 0
		for day+1 < len(d.Days) && (len(d.Days[day]) == 0 || len(d.Days[day+1]) == 0) {
			day++
		}
		if day+1 == len(d.Days) {
			t.Fatalf("%s: no two consecutive days hold records; test vacuous", name)
		}
		next := slices.Clone(d.Days[day+1])
		d.Days[day] = append(d.Days[day], Measurement{URL: "appended.example", TargetIdx: -1})
		if !reflect.DeepEqual(d.Days[day+1], next) {
			t.Errorf("%s: appending to day %d changed day %d", name, day, day+1)
		}
	}
	scenario, err := (&ScenarioSource{}).Open(ctx, cfg)
	appendTo("ScenarioSource.Open", scenario, err)
	loaded, err := LoadDataset(path)
	appendTo("LoadDataset", loaded, err)
	opened, err := src.Open(ctx, Config{})
	appendTo("FileSource.Open", opened, err)
	returned, err := direct.Dataset()
	appendTo("Result.Dataset", returned, err)

	if after := runDirect(t, WithSource(src)); !reflect.DeepEqual(after, before) {
		t.Error("appending to handed-out days changed a later run over the same FileSource")
	}
	if after := runDirect(t, WithConfig(cfg)); !reflect.DeepEqual(after.Censors, direct.Censors) || !reflect.DeepEqual(after.Churn, direct.Churn) {
		t.Error("appending to handed-out days changed a later run over the ScenarioSource")
	}
	if again, err := direct.Dataset(); err != nil || !reflect.DeepEqual(again, exported) {
		t.Errorf("appending to handed-out days changed the Result's Dataset (err %v)", err)
	}
}

// TestRecordOrderDoesNotMatter is a metamorphic check: shuffling the
// measurements within each day must leave every verdict and report field
// unchanged, in batch and in a streaming replay (window by window).
func TestRecordOrderDoesNotMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	ds, err := runDirect(t, WithConfig(exportTestConfig())).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(17, 0x5e1f))
	shuffled := &Dataset{Info: ds.Info, Days: make([][]Measurement, len(ds.Days))}
	moved := false
	for d, day := range ds.Days {
		shuffled.Days[d] = append([]Measurement(nil), day...)
		rng.Shuffle(len(day), func(i, j int) {
			shuffled.Days[d][i], shuffled.Days[d][j] = shuffled.Days[d][j], shuffled.Days[d][i]
			moved = moved || i != j
		})
	}
	if !moved {
		t.Fatal("the shuffle moved no measurement; test vacuous")
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"batch", nil},
		{"stream", []Option{WithWindow(14)}},
	} {
		want := runDirect(t, append([]Option{WithSource(ds)}, mode.opts...)...)
		got := runDirect(t, append([]Option{WithSource(shuffled)}, mode.opts...)...)
		if len(want.Identified) == 0 {
			t.Fatalf("%s: nothing identified; test vacuous", mode.name)
		}
		for _, field := range []struct {
			name      string
			want, got any
		}{
			{"Identified", want.Identified, got.Identified},
			{"Censors", want.Censors, got.Censors},
			{"Summary", want.Summary, got.Summary},
			{"Churn", want.Churn, got.Churn},
			{"ChurnByClass", want.ChurnByClass, got.ChurnByClass},
			{"Leakage", want.Leakage, got.Leakage},
			{"Windows", want.Windows, got.Windows},
		} {
			if !reflect.DeepEqual(field.want, field.got) {
				t.Errorf("%s: %s changes when each day's measurements are shuffled", mode.name, field.name)
			}
		}
	}
}

// TestRaisingMinCNFsNeverAddsACensor is a metamorphic check: a higher
// corroboration threshold can only drop censors. In batch and in every
// streaming window, each AS named at a threshold is named at the next
// lower one too, with an identical record.
func TestRaisingMinCNFsNeverAddsACensor(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	ds, err := runDirect(t, WithConfig(exportTestConfig())).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	narrower := func(what string, higher, lower map[ASN]*IdentifiedCensor) {
		t.Helper()
		for asn, c := range higher {
			if !reflect.DeepEqual(c, lower[asn]) {
				t.Errorf("%s: AS%v at the higher threshold is %+v, at the lower %+v", what, asn, c, lower[asn])
			}
		}
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"batch", nil},
		{"stream", []Option{WithWindow(14)}},
	} {
		var first, prev *Result
		for _, k := range []int{1, 2, 4, 8, 16} {
			res := runDirect(t, append([]Option{WithSource(ds), WithMinCNFs(k)}, mode.opts...)...)
			if prev == nil {
				first = res
			} else {
				what := fmt.Sprintf("%s, minCNFs %d", mode.name, k)
				narrower(what, res.Identified, prev.Identified)
				if len(res.Windows) != len(prev.Windows) {
					t.Fatalf("%s: %d windows, %d at the lower threshold", what, len(res.Windows), len(prev.Windows))
				}
				for i, w := range res.Windows {
					narrower(fmt.Sprintf("%s, window %d", what, i), w.Identified, prev.Windows[i].Identified)
				}
			}
			prev = res
		}
		if len(prev.Identified) >= len(first.Identified) {
			t.Errorf("%s: %d censors at minCNFs 1, %d at 16; the thresholds filtered nothing, test vacuous",
				mode.name, len(first.Identified), len(prev.Identified))
		}
	}
}

// TestCleanRecordsNeverGrowACandidateSet is a metamorphic check: clean
// observations only add negative unit clauses, so they can only remove
// models. Every third clean, conclusive record is copied onto a URL that
// has anomalies; the CNF keys must not change, and no CNF's candidate set
// (its censors plus potential censors) may gain an AS.
func TestCleanRecordsNeverGrowACandidateSet(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	records := runDirect(t, WithConfig(testConfig())).cell.dataset.Records
	var anomalous []string
	seen := map[string]bool{}
	for i := range records {
		r := &records[i]
		if r.Anomalies != 0 && !seen[r.URL] {
			seen[r.URL] = true
			anomalous = append(anomalous, r.URL)
		}
	}
	sort.Strings(anomalous)
	if len(anomalous) == 0 {
		t.Fatal("no anomalous URL; test vacuous")
	}
	more := append([]iclab.Record(nil), records...)
	clean := 0
	for i := range records {
		r := records[i]
		if r.Anomalies != 0 || len(r.ASPath) == 0 {
			continue
		}
		if clean++; clean%3 != 0 {
			continue
		}
		r.URL = anomalous[clean/3%len(anomalous)]
		more = append(more, r)
	}

	candidates := func(records []iclab.Record) map[tomo.Key]map[ASN]bool {
		_, outcomes := tomo.BuildAndSolve(records, tomo.BuildConfig{})
		out := map[tomo.Key]map[ASN]bool{}
		for _, o := range outcomes {
			set := map[ASN]bool{}
			for _, as := range append(append([]ASN(nil), o.Censors...), o.Potential...) {
				set[as] = true
			}
			out[o.Inst.Key] = set
		}
		return out
	}
	before, after := candidates(records), candidates(more)
	if len(before) != len(after) {
		t.Fatalf("%d CNFs before the clean copies, %d after", len(before), len(after))
	}
	shrank := 0
	for key, was := range before {
		now, ok := after[key]
		if !ok {
			t.Fatalf("CNF %v disappeared after the clean copies", key)
		}
		for as := range now {
			if !was[as] {
				t.Errorf("CNF %v: %v joined the candidate set after clean copies", key, as)
			}
		}
		if len(now) < len(was) {
			shrank++
		}
	}
	if shrank == 0 {
		t.Fatalf("%d clean copies shrank no candidate set; test vacuous", len(more)-len(records))
	}
	t.Logf("%d CNFs, %d clean copies, %d candidate sets shrank", len(before), len(more)-len(records), shrank)
}

// relabel returns a deep copy of d with every ASN passed through f: the
// vantage, target and AS tables, the true censors, and each record's
// vantage, target, path, true path and truth acts.
func relabel(d *Dataset, f func(ASN) ASN) *Dataset {
	path := func(asns []ASN) []ASN {
		if asns == nil {
			return nil
		}
		out := make([]ASN, len(asns))
		for i, a := range asns {
			out[i] = f(a)
		}
		return out
	}
	out := &Dataset{Info: d.Info, Days: make([][]Measurement, len(d.Days))}
	info := &out.Info
	info.Vantages = append([]VantageInfo(nil), info.Vantages...)
	for i := range info.Vantages {
		info.Vantages[i].ASN = f(info.Vantages[i].ASN)
	}
	info.Targets = append([]TargetInfo(nil), info.Targets...)
	for i := range info.Targets {
		info.Targets[i].ASN = f(info.Targets[i].ASN)
	}
	info.ASes = append([]ASInfo(nil), info.ASes...)
	for i := range info.ASes {
		info.ASes[i].ASN = f(info.ASes[i].ASN)
	}
	info.TruthCensors = path(info.TruthCensors)
	for day, batch := range d.Days {
		for _, rec := range batch {
			rec.Vantage, rec.TargetASN = f(rec.Vantage), f(rec.TargetASN)
			rec.ASPath, rec.TruePath = path(rec.ASPath), path(rec.TruePath)
			acts := rec.TrueActs
			rec.TrueActs = nil
			for _, act := range acts {
				rec.TrueActs = append(rec.TrueActs, TruthAct{ASN: f(act.ASN), Kinds: act.Kinds})
			}
			out.Days[day] = append(out.Days[day], rec)
		}
	}
	return out
}

// TestASNRelabelingPreservesVerdicts is a metamorphic check: renaming
// every ASN of a dataset must leave the localization the same up to
// names, in batch and in a streaming replay. An order-preserving map keeps
// every CNF's path order (paths rank ASN by ASN), so each report field is
// identical once names are mapped back. An order-reversing map inverts
// that order; the identified set must still map, and every class count,
// reduction fraction and graded count must stay.
func TestASNRelabelingPreservesVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	type headline struct{ ases, countries int }
	leakageOf := func(r *Result) headline {
		if r.Leakage == nil {
			return headline{}
		}
		return headline{r.Leakage.LeakToOtherASes, r.Leakage.LeakToOtherCountries}
	}
	sorted := func(fs []float64) []float64 {
		out := append([]float64(nil), fs...)
		sort.Float64s(out)
		return out
	}
	leaked, leakageFPs := false, false
	for _, world := range []struct {
		scenario string
		cfg      Config
	}{
		// Nine censors, four of them false positives on censored paths.
		{"national-firewall", goldenConfig()},
		// Censors whose leakage reaches other ASes and countries.
		{"transit-leakage", testConfig()},
	} {
		ds, err := runDirect(t, WithConfig(world.cfg), WithScenario(world.scenario)).Dataset()
		if err != nil {
			t.Fatal(err)
		}
		var top ASN
		for _, as := range ds.Info.ASes {
			top = max(top, as.ASN)
		}
		maps := []struct {
			name          string
			to, back      func(ASN) ASN
			orderPreserve bool
		}{
			{"3a+11", func(a ASN) ASN { return 3*a + 11 }, func(a ASN) ASN { return (a - 11) / 3 }, true},
			{"reversed", func(a ASN) ASN { return top + 1 - a }, func(a ASN) ASN { return top + 1 - a }, false},
		}
		for _, mode := range []struct {
			name string
			opts []Option
		}{
			{"batch", nil},
			{"stream", []Option{WithWindow(14)}},
		} {
			want := runDirect(t, append([]Option{WithSource(ds)}, mode.opts...)...)
			if len(want.Identified) < 3 {
				t.Fatalf("%s %s: %d censors identified; want a world that names at least 3", world.scenario, mode.name, len(want.Identified))
			}
			leaked = leaked || leakageOf(want) != headline{}
			leakageFPs = leakageFPs || want.Evaluation.LeakageFPs > 0
			for _, m := range maps {
				what := fmt.Sprintf("%s, %s, %s", world.scenario, mode.name, m.name)
				got := runDirect(t, append([]Option{WithSource(relabel(ds, m.to))}, mode.opts...)...)
				if m.orderPreserve {
					back := map[ASN]*IdentifiedCensor{}
					for asn, c := range got.Identified {
						named := *c
						named.ASN = m.back(c.ASN)
						back[m.back(asn)] = &named
					}
					for _, field := range []struct {
						name      string
						want, got any
					}{
						{"Identified", want.Identified, back},
						{"Summary", want.Summary, got.Summary},
						{"Reductions", want.Reductions, got.Reductions},
						{"Churn", want.Churn, got.Churn},
						{"leakage headline", leakageOf(want), leakageOf(got)},
					} {
						if !reflect.DeepEqual(field.want, field.got) {
							t.Errorf("%s: %s changes under the relabeling", what, field.name)
						}
					}
					continue
				}
				mapped := map[ASN]bool{}
				for asn := range want.Identified {
					mapped[m.to(asn)] = true
				}
				named := map[ASN]bool{}
				for asn := range got.Identified {
					named[asn] = true
				}
				if !reflect.DeepEqual(named, mapped) {
					t.Errorf("%s: identified %v, want the relabeled set %v", what, named, mapped)
				}
				ws, gs := want.Summary, got.Summary
				if [4]int{ws.CNFs, ws.UnsatCNFs, ws.UniqueCNFs, ws.MultipleCNFs} != [4]int{gs.CNFs, gs.UnsatCNFs, gs.UniqueCNFs, gs.MultipleCNFs} ||
					!reflect.DeepEqual(ws.ByGranularity, gs.ByGranularity) || !reflect.DeepEqual(ws.ByKind, gs.ByKind) {
					t.Errorf("%s: class counts change under the relabeling", what)
				}
				if !reflect.DeepEqual(sorted(want.Reductions), sorted(got.Reductions)) {
					t.Errorf("%s: reduction fractions change under the relabeling", what)
				}
				we, ge := want.Evaluation, got.Evaluation
				if [3]int{we.TP, we.FP, we.LeakageFPs} != [3]int{ge.TP, ge.FP, ge.LeakageFPs} {
					t.Errorf("%s: TP/FP/leakage FPs %d/%d/%d, want %d/%d/%d", what, ge.TP, ge.FP, ge.LeakageFPs, we.TP, we.FP, we.LeakageFPs)
				}
			}
		}
	}
	if !leaked || !leakageFPs {
		t.Errorf("no world leaked (%v) or graded a leakage false positive (%v); test vacuous", leaked, leakageFPs)
	}
}

// TestReplayWithoutGroundTruthIsUngraded replays a dataset whose file
// lists no true censors and whose records carry no truth. The run must be
// ungraded rather than graded against an empty registry; the same dataset
// with its truth intact is still graded.
func TestReplayWithoutGroundTruthIsUngraded(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end replays")
	}
	ds, err := (&ScenarioSource{}).Open(context.Background(), exportTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	graded := runDirect(t, WithSource(ds))
	if graded.Truth() == nil || graded.Evaluation == nil {
		t.Fatal("a replay with ground truth went ungraded")
	}
	trueCensors := 0
	for _, c := range graded.Censors {
		if c.TrueCensor {
			trueCensors++
		}
	}
	if trueCensors == 0 {
		t.Fatal("no identified censor is a true one; test vacuous")
	}

	stripped := &Dataset{Info: ds.Info, Days: make([][]Measurement, len(ds.Days))}
	stripped.Info.TruthCensors = nil
	for d, day := range ds.Days {
		stripped.Days[d] = append([]Measurement(nil), day...)
		for i := range stripped.Days[d] {
			stripped.Days[d][i].TruePath, stripped.Days[d][i].TrueActs = nil, nil
		}
	}
	res := runDirect(t, WithSource(stripped))
	if res.Truth() != nil || res.Evaluation != nil {
		t.Errorf("a replay without ground truth was graded: Truth %+v, Evaluation %+v", res.Truth(), res.Evaluation)
	}
	if len(res.Censors) != len(graded.Censors) {
		t.Fatalf("stripping the truth changed the verdict: %d censors, %d with truth", len(res.Censors), len(graded.Censors))
	}
	for _, c := range res.Censors {
		if c.TrueCensor {
			t.Errorf("%v marked a true censor without ground truth", c.ASN)
		}
	}
}

// TestScenarioSourceOpenMatchesExport pins that the two public ways of
// obtaining a dataset — ScenarioSource.Open and Result.Dataset after a
// run — agree on the data for the same Config.
func TestScenarioSourceOpenMatchesExport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end generation")
	}
	cfg := exportTestConfig()
	opened, err := (&ScenarioSource{}).Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromRun, err := runDirect(t, WithConfig(cfg)).Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(opened.Days) != len(fromRun.Days) {
		t.Fatalf("day batches: Open %d, run export %d", len(opened.Days), len(fromRun.Days))
	}
	total := 0
	for day := range opened.Days {
		if len(opened.Days[day]) != len(fromRun.Days[day]) {
			t.Fatalf("day %d: Open %d records, run export %d", day, len(opened.Days[day]), len(fromRun.Days[day]))
		}
		total += len(opened.Days[day])
		for i := range opened.Days[day] {
			a, b := opened.Days[day][i], fromRun.Days[day][i]
			if a.Vantage != b.Vantage || a.URL != b.URL || !a.At.Equal(b.At) ||
				a.Anomalies != b.Anomalies || a.Fail != b.Fail || !reflect.DeepEqual(a.ASPath, b.ASPath) {
				t.Fatalf("day %d record %d diverges: %+v vs %+v", day, i, a, b)
			}
		}
	}
	if total == 0 {
		t.Fatal("no records generated")
	}
	if !reflect.DeepEqual(opened.Info.Targets, fromRun.Info.Targets) ||
		!reflect.DeepEqual(opened.Info.Vantages, fromRun.Info.Vantages) {
		t.Error("world metadata diverges between Open and run export")
	}
}

// TestSourceOptionValidation covers the construction-time contracts of
// the source options and the WithSeed zero-value rule.
func TestSourceOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"nil source", []Option{WithSource(nil)}, "WithSource"},
		{"empty input", []Option{WithInput("")}, "WithInput"},
		{"scenario plus file source", []Option{WithScenario(ScenarioBaseline), WithInput("x")}, "replays recorded data"},
		{"seed sweep over a replay", []Option{WithInput("x"), WithSeedSweep(4)}, "same recorded data into every cell"},
		{"seed zero", []Option{WithSeed(0)}, "WithSeed(0)"},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A scenario selection combined with the default-synthesis source is
	// fine — the source is what the selection steers.
	if _, err := New(WithScenario(ScenarioBaseline), WithSource(&ScenarioSource{})); err != nil {
		t.Errorf("WithScenario + WithSource(ScenarioSource): %v", err)
	}
	// So is a seed sweep over a synthesizing source — each cell builds its
	// own world.
	if _, err := New(WithSource(&ScenarioSource{}), WithSeedSweep(2)); err != nil {
		t.Errorf("WithSource(ScenarioSource) + WithSeedSweep: %v", err)
	}
}

// TestScenarioSourceSpecNamesResult pins that a ScenarioSource building a
// registered composed spec records the spec's name — not the config's
// default — in the result, in Result.Dataset and in its own Open.
func TestScenarioSourceSpecNamesResult(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	spec, err := ScenarioByName("transit-leakage")
	if err != nil {
		t.Fatal(err)
	}
	name := registerFixture(t, spec, "leaky-copy")
	cfg := exportTestConfig()
	cfg.Days = 6
	res := runDirect(t, WithConfig(cfg), WithScenario(name), WithSource(&ScenarioSource{}))
	if res.Summary.Scenario != name {
		t.Errorf("Summary.Scenario = %q, want %q", res.Summary.Scenario, name)
	}
	ds, err := res.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Info.Scenario != name {
		t.Errorf("exported Info.Scenario = %q, want %q", ds.Info.Scenario, name)
	}
	cfg.Scenario = name
	opened, err := (&ScenarioSource{}).Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Info.Scenario != name || opened.Info.Label != "scenario "+name {
		t.Errorf("Open's dataset is labeled %q, scenario %q; want scenario %q", opened.Info.Label, opened.Info.Scenario, name)
	}
}

// TestFileSourceLoadEvent pins the StageLoad event and its TextObserver
// rendering for dataset-backed runs.
func TestFileSourceLoadEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	direct := runDirect(t, WithConfig(exportTestConfig()))
	path := filepath.Join(t.TempDir(), "ds.jsonl.gz")
	if err := direct.Export(path); err != nil {
		t.Fatal(err)
	}
	var loads []Event
	runDirect(t, WithInput(path), WithObserver(func(ev Event) {
		if ev.Stage == StageLoad {
			loads = append(loads, ev)
		}
	}))
	if len(loads) != 1 {
		t.Fatalf("got %d StageLoad events, want 1", len(loads))
	}
	if loads[0].Source != path {
		t.Errorf("StageLoad.Source = %q, want %q", loads[0].Source, path)
	}
	if got := StageLoad.String(); got != "load" {
		t.Errorf("StageLoad.String() = %q", got)
	}

	var buf strings.Builder
	TextObserver(&buf)(loads[0])
	if want := "loading dataset from " + path + "\n"; buf.String() != want {
		t.Errorf("TextObserver rendering = %q, want %q", buf.String(), want)
	}
}

// TestExportRejectsMatrixAndEmptyResults pins the Export error contract.
func TestExportRejectsMatrixAndEmptyResults(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end matrix")
	}
	cfg := exportTestConfig()
	cfg.Days = 6
	res := runDirect(t, WithConfig(cfg), WithSeedSweep(2))
	if err := res.Export(filepath.Join(t.TempDir(), "m.jsonl.gz")); err == nil {
		t.Error("Export accepted a matrix result")
	} else if !strings.Contains(err.Error(), "matrix") {
		t.Errorf("matrix export error %q does not explain itself", err)
	}
	if err := (&Result{}).Export(filepath.Join(t.TempDir(), "e.jsonl.gz")); err == nil {
		t.Error("Export accepted an empty result")
	}
}

// TestLoadDatasetErrors pins the decode error surface external callers
// see: missing files and non-dataset files fail descriptively.
func TestLoadDatasetErrors(t *testing.T) {
	if _, err := LoadDataset(filepath.Join(t.TempDir(), "absent.jsonl.gz")); err == nil {
		t.Error("LoadDataset read a nonexistent file")
	}
	exp, err := New(WithInput(filepath.Join(t.TempDir(), "absent.jsonl.gz")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err == nil {
		t.Error("Run succeeded over a nonexistent dataset")
	}
}
