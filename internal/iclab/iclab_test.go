package iclab

import (
	"context"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/censor"
	"churntomo/internal/ipasmap"
	"churntomo/internal/routing"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

var (
	start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
)

// buildStack assembles a small but complete scenario for tests.
func buildStack(t testing.TB, seed uint64, days int) *Scenario {
	t.Helper()
	end := start.AddDate(0, 0, days)
	g, err := topology.Generate(topology.GenConfig{Seed: seed, ASes: 250, Countries: 25})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := routing.GenTimeline(g, routing.TimelineConfig{Seed: seed, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	o := routing.NewOracle(g, tl, 2048)
	reg, err := censor.Generate(g, censor.GenConfig{Seed: seed, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	db, err := ipasmap.Build(g, ipasmap.BuildConfig{Seed: seed, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildScenario(g, o, reg, db, start, end, ScenarioConfig{Seed: seed, Vantages: 12, URLs: 24})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run measures the whole schedule into one merged record sequence.
func run(t testing.TB, s *Scenario, cfg PlatformConfig) []Record {
	t.Helper()
	shards, err := RunByDayCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return MergeShards(shards)
}

func TestBuildScenarioShape(t *testing.T) {
	s := buildStack(t, 1, 30)
	if len(s.Vantages) != 12 || len(s.Targets) != 24 {
		t.Fatalf("scenario sizes: %d vantages, %d targets", len(s.Vantages), len(s.Targets))
	}
	vantageASNs := map[topology.ASN]bool{}
	for _, v := range s.Vantages {
		if v.ASN == topology.ResolverASN {
			t.Error("resolver chosen as vantage")
		}
		if vantageASNs[v.ASN] {
			t.Errorf("duplicate vantage %v", v.ASN)
		}
		vantageASNs[v.ASN] = true
		as, ok := s.Graph.ByASN(v.ASN)
		if !ok || as.Role != topology.RoleStub {
			t.Errorf("vantage %v not a stub", v.ASN)
		}
		if !as.Prefixes[0].Contains(v.IP) {
			t.Errorf("vantage IP %v outside its AS", v.IP)
		}
	}
	for _, tg := range s.Targets {
		if vantageASNs[tg.ASN] {
			t.Errorf("target %v collides with a vantage AS", tg.ASN)
		}
		if len(tg.Body) < 500 {
			t.Errorf("target %s body too small (%d)", tg.URL.Host, len(tg.Body))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	s := buildStack(t, 2, 5)
	cfg := PlatformConfig{Seed: 9, URLsPerDay: 3, RepeatsPerDay: 1}
	a := run(t, s, cfg)
	b := run(t, buildStack(t, 2, 5), cfg)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := &a[i], &b[i]
		if ra.Vantage != rb.Vantage || ra.URL != rb.URL || ra.Anomalies != rb.Anomalies || !ra.At.Equal(rb.At) {
			t.Fatalf("record %d differs across identical runs", i)
		}
	}
}

func TestRunScheduleCoverage(t *testing.T) {
	s := buildStack(t, 3, 10)
	ds := run(t, s, PlatformConfig{Seed: 1, URLsPerDay: 4, RepeatsPerDay: 2})
	// 10 days x 4 URLs x 12 vantages x 2 repeats.
	want := 10 * 4 * 12 * 2
	if len(ds) != want {
		t.Fatalf("got %d records, want %d", len(ds), want)
	}
	// Every vantage appears; URLs rotate through the list.
	urls := map[string]bool{}
	vantages := map[topology.ASN]bool{}
	for i := range ds {
		urls[ds[i].URL] = true
		vantages[ds[i].Vantage] = true
	}
	if len(vantages) != 12 {
		t.Errorf("only %d vantages measured", len(vantages))
	}
	if len(urls) != 24 { // 10*4=40 slots wrap the 24-URL list fully
		t.Errorf("only %d URLs measured", len(urls))
	}
}

func TestRunRecordsInternallyConsistent(t *testing.T) {
	s := buildStack(t, 4, 12)
	ds := run(t, s, PlatformConfig{Seed: 2, URLsPerDay: 3, RepeatsPerDay: 2})
	okPaths, fails := 0, 0
	for i := range ds {
		r := &ds[i]
		if r.Fail == traceroute.OK {
			okPaths++
			if len(r.ASPath) < 2 {
				t.Fatalf("record %d: implausibly short AS path %v", i, r.ASPath)
			}
			if r.ASPath[0] != r.Vantage {
				t.Fatalf("record %d: path starts at %v, vantage %v", i, r.ASPath[0], r.Vantage)
			}
		} else {
			fails++
			if r.ASPath != nil {
				t.Fatalf("record %d: failed inference but path present", i)
			}
		}
		if !r.Unreachable && len(r.TruePath) == 0 {
			t.Fatalf("record %d: missing ground-truth path", i)
		}
	}
	if okPaths == 0 {
		t.Fatal("no record yielded a usable AS path")
	}
	frac := float64(fails) / float64(len(ds))
	if frac > 0.35 {
		t.Errorf("inconclusive-path rate %.1f%% implausibly high", 100*frac)
	}
	if fails == 0 {
		t.Error("no inconclusive records at all; elimination rules never fire")
	}
}

func TestRunDetectsRealCensorship(t *testing.T) {
	s := buildStack(t, 5, 20)
	ds := run(t, s, PlatformConfig{Seed: 3, URLsPerDay: 4, RepeatsPerDay: 2})

	truePos, trueNeg, detected, flagged := 0, 0, 0, 0
	agreeOnActed := 0
	for i := range ds {
		r := &ds[i]
		acted := len(r.TrueActs) > 0
		hasAnom := r.Anomalies != 0
		if acted {
			truePos++
			if hasAnom {
				detected++
				// At least one detected kind should be among the acting
				// censors' technique kinds (TTL may co-fire with others).
				var actedKinds anomaly.Set
				for _, a := range r.TrueActs {
					actedKinds |= a.Kinds
				}
				if r.Anomalies&actedKinds != 0 || r.Anomalies.Has(anomaly.TTL) {
					agreeOnActed++
				}
			}
		} else {
			trueNeg++
			if hasAnom {
				flagged++
			}
		}
	}
	if truePos == 0 {
		t.Fatal("no measurement crossed an acting censor; scenario toothless")
	}
	detRate := float64(detected) / float64(truePos)
	if detRate < 0.9 {
		t.Errorf("censored measurements detected at only %.1f%%", 100*detRate)
	}
	if agreeOnActed < detected*9/10 {
		t.Errorf("detected kinds disagree with acting censors: %d/%d", agreeOnActed, detected)
	}
	fpRate := float64(flagged) / float64(trueNeg)
	if fpRate > 0.03 {
		t.Errorf("false positive rate %.2f%% too high", 100*fpRate)
	}
	if flagged == 0 {
		t.Error("zero false positives; noise model inert")
	}
	t.Logf("censored=%d detected=%.1f%% fp=%.2f%%", truePos, 100*detRate, 100*fpRate)
}

func TestTable1Shape(t *testing.T) {
	s := buildStack(t, 6, 15)
	ds := run(t, s, PlatformConfig{Seed: 4, URLsPerDay: 3, RepeatsPerDay: 2})
	tab := ComputeTable1(s, ds)
	if tab.Measurements != len(ds) {
		t.Errorf("measurements %d != records %d", tab.Measurements, len(ds))
	}
	if tab.VantageASes != 12 {
		t.Errorf("vantage ASes = %d", tab.VantageASes)
	}
	if tab.UniqueURLs == 0 || tab.DestinationASes == 0 || tab.Countries == 0 {
		t.Errorf("empty dimensions: %+v", tab)
	}
	total := 0
	for _, k := range anomaly.Kinds {
		total += tab.Anomalies[k]
	}
	if total == 0 {
		t.Error("no anomalies at all over 15 days")
	}
	// Anomalous measurements must be the minority, echoing Table 1's rates
	// (a censored measurement can light up several kinds, so count records).
	anomalous := 0
	for i := range ds {
		if ds[i].Anomalies != 0 {
			anomalous++
		}
	}
	if rate := float64(anomalous) / float64(tab.Measurements); rate > 0.25 {
		t.Errorf("anomalous-measurement rate %.1f%% implausibly high", 100*rate)
	}
}

func TestScenarioErrors(t *testing.T) {
	s := buildStack(t, 7, 10)
	if _, err := BuildScenario(s.Graph, s.Oracle, s.Censors, s.DB, start, start, ScenarioConfig{}); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := BuildScenario(s.Graph, s.Oracle, s.Censors, s.DB, start, start.AddDate(0, 1, 0),
		ScenarioConfig{Vantages: 100000}); err == nil {
		t.Error("oversized vantage request accepted")
	}
}
