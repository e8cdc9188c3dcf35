package churntomo

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"churntomo/internal/churn"
	"churntomo/internal/iclab"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// testConfig is a fast end-to-end configuration.
func testConfig() Config {
	cfg := SmallConfig()
	cfg.Days = 30
	cfg.Vantages = 12
	cfg.URLs = 16
	cfg.URLsPerDay = 6
	return cfg
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	var progress bytes.Buffer
	p := runDirect(t, WithConfig(testConfig()), WithObserver(TextObserver(&progress))).cell

	// Every stage populated.
	w := p.world
	if w == nil || w.Graph == nil || w.Oracle == nil || w.Censors == nil ||
		w.DB == nil || p.dataset == nil || p.leakage == nil {
		t.Fatal("pipeline stage missing")
	}
	if len(p.dataset.Records) == 0 {
		t.Fatal("no measurements")
	}
	if len(p.outcomes) == 0 {
		t.Fatal("no CNFs")
	}
	if progress.Len() == 0 {
		t.Error("progress writer received nothing")
	}

	// Structural sanity of outcomes: every class present across a month of
	// measurements with censors in play.
	var byClass [3]int
	for _, o := range p.outcomes {
		byClass[o.Class]++
	}
	if byClass[sat.Unique] == 0 {
		t.Error("no unique-solution CNFs; localization inert")
	}
	if byClass[sat.Multiple] == 0 {
		t.Error("no multi-solution CNFs; scenario implausibly over-determined")
	}

	// Identified censors must be corroborated and mostly real.
	for asn, c := range p.identified {
		if c.CNFs < 3 {
			t.Errorf("censor %v passed the filter with only %d CNFs", asn, c.CNFs)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	a := runDirect(t, WithConfig(cfg)).cell
	b := runDirect(t, WithConfig(cfg)).cell
	if len(a.dataset.Records) != len(b.dataset.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.dataset.Records), len(b.dataset.Records))
	}
	if len(a.outcomes) != len(b.outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.outcomes), len(b.outcomes))
	}
	for i := range a.outcomes {
		if a.outcomes[i].Class != b.outcomes[i].Class {
			t.Fatalf("outcome %d class differs", i)
		}
	}
	if len(a.identified) != len(b.identified) {
		t.Fatalf("identified censors differ: %d vs %d", len(a.identified), len(b.identified))
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	d := DefaultConfig()
	if cfg.ASes != d.ASes || cfg.Vantages != d.Vantages || cfg.Days != d.Days {
		t.Errorf("zero config did not inherit defaults: %+v", cfg)
	}
	if cfg.Start.IsZero() {
		t.Error("start not defaulted")
	}
	if cfg.Start.Year() != 2016 || cfg.Start.Month() != 5 {
		t.Errorf("default start %v, want 2016-05 (the paper's window)", cfg.Start)
	}
}

func TestRunRejectsBrokenConfig(t *testing.T) {
	cfg := testConfig()
	cfg.ASes = 20
	cfg.Vantages = 1000 // more vantages than stubs
	exp, err := New(WithConfig(cfg))
	if err == nil {
		_, err = exp.Run(context.Background())
	}
	if err == nil {
		t.Error("oversized vantage count accepted")
	}
}

// TestGroundTruthIsolation verifies the tomography path never reads
// ground-truth fields: scrubbing them from the records must not change any
// outcome.
func TestGroundTruthIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	p := runDirect(t, WithConfig(testConfig())).cell
	scrubbed := make([]int, 0)
	records := append([]iclab.Record(nil), p.dataset.Records...)
	for i := range records {
		if records[i].TruePath != nil || records[i].TrueActs != nil {
			scrubbed = append(scrubbed, i)
		}
		records[i].TruePath = nil
		records[i].TrueActs = nil
	}
	if len(scrubbed) == 0 {
		t.Fatal("no ground truth present to scrub; test vacuous")
	}
	insts := tomo.Build(records, tomo.BuildConfig{})
	if len(insts) != len(p.outcomes) {
		t.Fatalf("instance count changed after scrubbing: %d vs %d", len(insts), len(p.outcomes))
	}
	outcomes := tomo.SolveAll(insts)
	for i := range outcomes {
		if outcomes[i].Class != p.outcomes[i].Class {
			t.Fatalf("outcome %d changed after ground-truth scrub", i)
		}
	}
}

func TestChurnMonotoneAcrossGranularities(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	p := runDirect(t, WithConfig(testConfig())).cell
	ds, _ := churn.Measure(p.dataset.Records, nil)
	if len(ds) != len(timeslice.All) {
		t.Fatalf("got %d distributions", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].ChangedFrac()+1e-9 < ds[i-1].ChangedFrac() {
			t.Errorf("churn not monotone: %v %.3f < %v %.3f",
				ds[i].Gran, ds[i].ChangedFrac(), ds[i-1].Gran, ds[i-1].ChangedFrac())
		}
	}
	if ds[0].ChangedFrac() == 0 {
		t.Error("no intra-day churn at all")
	}
}

func TestInconclusiveRulesAllFire(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	cfg.Days = 45
	p := runDirect(t, WithConfig(cfg)).cell
	seen := map[traceroute.FailReason]int{}
	for i := range p.dataset.Records {
		seen[p.dataset.Records[i].Fail]++
	}
	for _, why := range []traceroute.FailReason{
		traceroute.ErrTraceFailed, traceroute.ErrSilentBoundary,
	} {
		if seen[why] == 0 {
			t.Errorf("elimination rule %v never fired over 45 days", why)
		}
	}
	if seen[traceroute.OK] == 0 {
		t.Fatal("no conclusive records")
	}
}

func TestIdentifiedCensorsAreOnCensoredPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	cfg.Days = 60
	p := runDirect(t, WithConfig(cfg)).cell
	if len(p.identified) == 0 {
		t.Skip("no censors identified at this scale/seed")
	}
	onPath := map[topology.ASN]bool{}
	for i := range p.dataset.Records {
		r := &p.dataset.Records[i]
		if r.Anomalies == 0 {
			continue
		}
		for _, as := range r.ASPath {
			onPath[as] = true
		}
	}
	for asn := range p.identified {
		if !onPath[asn] {
			t.Errorf("identified censor %v never appeared on an anomalous path", asn)
		}
	}
}

// identifiedSummary flattens the Identified map into a comparable form.
func identifiedSummary(p *cell) map[topology.ASN]string {
	out := map[topology.ASN]string{}
	for asn, c := range p.identified {
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		out[asn] = fmt.Sprintf("kinds=%v cnfs=%d urls=%v", c.Kinds, c.CNFs, urls)
	}
	return out
}

// leakageSummary flattens the leakage analysis into a comparable form.
func leakageSummary(p *cell) string {
	return fmt.Sprintf("asLeaks=%d countryLeaks=%d flow=%v",
		p.leakage.LeakToOtherASes(), p.leakage.LeakToOtherCountries(), p.leakage.Flow)
}

// TestSerialParallelIdentical is the engine's end-to-end determinism
// regression: the same seed must produce identical censor identifications,
// leakage and churn summaries whether the pipeline runs serially (the
// churn summary after the localization), runs with two workers or a full
// pool (the churn summary beside the localization), or runs twice.
func TestSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	serialCfg := testConfig()
	serialCfg.Workers = 1
	serial := runDirect(t, WithConfig(serialCfg)).cell

	variants := map[string]int{"two-workers": 2, "parallel": 8, "parallel-again": 8, "default-workers": 0}
	for name, workers := range variants {
		cfg := testConfig()
		cfg.Workers = workers
		got := runDirect(t, WithConfig(cfg)).cell
		if len(got.dataset.Records) != len(serial.dataset.Records) {
			t.Fatalf("%s: %d records vs %d serial", name, len(got.dataset.Records), len(serial.dataset.Records))
		}
		for i := range serial.dataset.Records {
			if !reflect.DeepEqual(serial.dataset.Records[i], got.dataset.Records[i]) {
				t.Fatalf("%s: record %d differs from serial", name, i)
			}
		}
		if len(got.outcomes) != len(serial.outcomes) {
			t.Fatalf("%s: %d outcomes vs %d serial", name, len(got.outcomes), len(serial.outcomes))
		}
		for i := range serial.outcomes {
			if got.outcomes[i].Class != serial.outcomes[i].Class ||
				got.outcomes[i].Inst.Key != serial.outcomes[i].Inst.Key ||
				!reflect.DeepEqual(got.outcomes[i].Censors, serial.outcomes[i].Censors) {
				t.Fatalf("%s: outcome %d differs from serial", name, i)
			}
		}
		if !reflect.DeepEqual(identifiedSummary(serial), identifiedSummary(got)) {
			t.Fatalf("%s: identified censors differ from serial:\n%v\n%v",
				name, identifiedSummary(serial), identifiedSummary(got))
		}
		if leakageSummary(serial) != leakageSummary(got) {
			t.Fatalf("%s: leakage differs from serial:\n%s\n%s",
				name, leakageSummary(serial), leakageSummary(got))
		}
		if !reflect.DeepEqual(got.churn, serial.churn) || !reflect.DeepEqual(got.churnByClass, serial.churnByClass) {
			t.Fatalf("%s: churn summary differs from serial", name)
		}
	}
}
