package iclab

// Tests for ScenarioConfig.ECMPPaths: single-plane configs must be
// byte-identical to plane-unaware runs, and multi-plane configs must
// actually spread one vantage-target pair's repeats across paths.

import (
	"testing"

	"churntomo/internal/censor"
	"churntomo/internal/ipasmap"
	"churntomo/internal/routing"
	"churntomo/internal/topology"
)

// buildECMPStack is buildStack with a densely peered topology (route
// ties give the planes room to diverge) and a configurable plane count.
func buildECMPStack(t testing.TB, seed uint64, days, planes int) *Scenario {
	t.Helper()
	end := start.AddDate(0, 0, days)
	g, err := topology.Generate(topology.GenConfig{Seed: seed, ASes: 250, Countries: 25, PeerProb: 0.5})
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
	s, err := BuildScenario(g, o, reg, db, start, end,
		ScenarioConfig{Seed: seed, Vantages: 12, URLs: 24, ECMPPaths: planes})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestECMPSinglePlaneByteIdentical pins the guarded-draw rule: ECMPPaths
// 0 and 1 must produce datasets byte-identical to each other (the plane
// draw never happens, so the RNG stream is untouched).
func TestECMPSinglePlaneByteIdentical(t *testing.T) {
	cfg := PlatformConfig{Seed: 9, URLsPerDay: 4, RepeatsPerDay: 2}
	zero := run(t, buildECMPStack(t, 51, 6, 0), cfg)
	one := run(t, buildECMPStack(t, 51, 6, 1), cfg)
	if len(zero) != len(one) {
		t.Fatalf("record counts differ: %d vs %d", len(zero), len(one))
	}
	for i := range zero {
		a, b := &zero[i], &one[i]
		if a.Vantage != b.Vantage || a.URL != b.URL || a.Anomalies != b.Anomalies ||
			!a.At.Equal(b.At) || len(a.TruePath) != len(b.TruePath) {
			t.Fatalf("record %d differs between ECMPPaths 0 and 1", i)
		}
		for j := range a.TruePath {
			if a.TruePath[j] != b.TruePath[j] {
				t.Fatalf("record %d true path differs between ECMPPaths 0 and 1", i)
			}
		}
	}
}

// TestECMPMultiPlaneSpreadsPaths: with 3 planes over a densely peered
// graph, at least one vantage-target pair must observe different true
// paths within one day — per-flow hashing, the Pathfinder phenomenon.
func TestECMPMultiPlaneSpreadsPaths(t *testing.T) {
	s := buildECMPStack(t, 52, 4, 3)
	ds := run(t, s, PlatformConfig{Seed: 9, URLsPerDay: 4, RepeatsPerDay: 4})
	type pairDay struct {
		v   topology.ASN
		url string
		day int
	}
	paths := map[pairDay]map[string]bool{}
	for i := range ds {
		r := &ds[i]
		if len(r.TruePath) == 0 {
			continue
		}
		key := pairDay{r.Vantage, r.URL, r.At.YearDay()}
		if paths[key] == nil {
			paths[key] = map[string]bool{}
		}
		var sig []byte
		for _, as := range r.TruePath {
			sig = append(sig, byte(as), byte(as>>8), byte(as>>16), byte(as>>24))
		}
		paths[key][string(sig)] = true
	}
	split := 0
	for _, set := range paths {
		if len(set) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no vantage-target pair saw more than one path in a day under 3 ECMP planes")
	}
}

// TestECMPDeterministic: the plane draws come from the day RNG, so the
// multipath dataset is reproducible like everything else.
func TestECMPDeterministic(t *testing.T) {
	cfg := PlatformConfig{Seed: 9, URLsPerDay: 3, RepeatsPerDay: 2}
	a := run(t, buildECMPStack(t, 53, 4, 3), cfg)
	b := run(t, buildECMPStack(t, 53, 4, 3), cfg)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := &a[i], &b[i]
		if ra.Vantage != rb.Vantage || ra.URL != rb.URL || ra.Anomalies != rb.Anomalies {
			t.Fatalf("record %d differs across identical multipath runs", i)
		}
		for j := range ra.TruePath {
			if ra.TruePath[j] != rb.TruePath[j] {
				t.Fatalf("record %d path differs across identical multipath runs", i)
			}
		}
	}
}
