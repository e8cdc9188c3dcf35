package censor

import (
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
)

var (
	start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end   = start.AddDate(1, 0, 0)
)

// epochs returns p's epochs (shared; do not modify).
func epochs(p *Policy) []Epoch { return p.epochs }

// applies reports whether p fires technique k against category c at t.
func applies(p *Policy, k anomaly.Kind, c webcat.Category, t time.Time) bool {
	e := p.EpochAt(t)
	return e.Techniques.Has(k) && e.Categories.Has(c)
}

func TestPolicyEpochs(t *testing.T) {
	p := NewPolicy(100, "CN", Behavior{}, anomaly.MakeSet(anomaly.DNS), webcat.MakeSet(webcat.News))
	mid := start.AddDate(0, 6, 0)
	p.AddChange(mid, anomaly.MakeSet(anomaly.DNS, anomaly.RST), webcat.MakeSet(webcat.News, webcat.Politics))

	if !applies(p, anomaly.DNS, webcat.News, start) {
		t.Error("initial epoch should fire DNS on News")
	}
	if applies(p, anomaly.RST, webcat.News, start) {
		t.Error("RST should not fire before the change")
	}
	if !applies(p, anomaly.RST, webcat.Politics, mid.Add(time.Hour)) {
		t.Error("RST on Politics should fire after the change")
	}
	if applies(p, anomaly.DNS, webcat.Adult, end) {
		t.Error("untargeted category fired")
	}
}

func TestRegistryActiveOn(t *testing.T) {
	r := NewRegistry()
	r.Add(NewPolicy(200, "CN", Behavior{}, anomaly.MakeSet(anomaly.TTL), webcat.MakeSet(webcat.Shopping)))
	r.Add(NewPolicy(300, "GB", Behavior{}, anomaly.MakeSet(anomaly.Block), webcat.MakeSet(webcat.Ads)))

	path := []topology.ASN{100, 200, 300, 400}
	acts := r.ActiveOn(path, webcat.Shopping, start)
	if len(acts) != 1 || acts[0].ASN != 200 || acts[0].PathIndex != 1 {
		t.Fatalf("ActiveOn(Shopping) = %+v", acts)
	}
	if acts[0].Techniques != anomaly.MakeSet(anomaly.TTL) {
		t.Errorf("techniques = %v", acts[0].Techniques)
	}
	if got := r.ActiveOn(path, webcat.Health, start); got != nil {
		t.Errorf("untargeted category matched: %+v", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	asns := r.ASNs()
	if len(asns) != 2 || asns[0] != 200 || asns[1] != 300 {
		t.Errorf("ASNs = %v", asns)
	}
}

func genGraph(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 1, ASes: 500, Countries: 30})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateDeterministic(t *testing.T) {
	g := genGraph(t)
	cfg := GenConfig{Seed: 5, Start: start, End: end}
	a, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	as, bs := a.ASNs(), b.ASNs()
	if len(as) != len(bs) {
		t.Fatalf("nondeterministic censor counts: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("censor %d differs: %v vs %v", i, as[i], bs[i])
		}
	}
}

func TestGeneratePlacesPaperRegions(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 2, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	byCountry := map[string]int{}
	transitCensors := 0
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		byCountry[p.Country]++
		if as, ok := g.ByASN(asn); ok {
			if as.Role != topology.RoleStub {
				transitCensors++
			}
			if as.Country != p.Country {
				t.Errorf("censor %v country mismatch: policy %s, AS %s", asn, p.Country, as.Country)
			}
		} else {
			t.Errorf("censor %v not in topology", asn)
		}
	}
	for _, c := range []string{"CN", "GB", "SG", "PL", "CY"} {
		if byCountry[c] == 0 {
			t.Errorf("no censors in %s", c)
		}
	}
	if byCountry["CN"] < 3 {
		t.Errorf("CN has only %d censors", byCountry["CN"])
	}
	if transitCensors == 0 {
		t.Error("no transit censors; leakage experiments would be vacuous")
	}
	if len(byCountry) < 15 {
		t.Errorf("censors span only %d countries", len(byCountry))
	}
	if reg.Len() < 20 {
		t.Errorf("only %d censors generated", reg.Len())
	}
}

func TestGenerateResolverNeverCensors(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 3, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Policy(topology.ResolverASN); ok {
		t.Error("resolver AS was made a censor")
	}
}

func TestGeneratePolicyChanges(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 4, Start: start, End: end, PolicyChangeProb: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		if len(epochs(p)) > 1 {
			changed++
			// The change must land strictly inside the window.
			for _, e := range epochs(p)[1:] {
				if e.Start.Before(start) || !e.Start.Before(end) {
					t.Errorf("change for %v at %v outside window", asn, e.Start)
				}
			}
		}
		// Every epoch must keep at least one technique and one category.
		for _, e := range epochs(p) {
			if e.Techniques == 0 {
				t.Errorf("censor %v epoch with no techniques", asn)
			}
			if e.Categories == 0 {
				t.Errorf("censor %v epoch with no categories", asn)
			}
		}
	}
	if changed < reg.Len()/2 {
		t.Errorf("only %d/%d censors changed policy at prob 0.9", changed, reg.Len())
	}
}

func TestGenerateCNImplementsAll(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 6, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	var cnUnion anomaly.Set
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		if p.Country != "CN" {
			continue
		}
		for _, e := range epochs(p) {
			cnUnion |= e.Techniques
		}
	}
	if cnUnion != anomaly.AllKinds {
		t.Errorf("CN censors union = %v, want All (paper: China implements all forms)", cnUnion)
	}
}

func TestGenerateInvalidWindow(t *testing.T) {
	g := genGraph(t)
	if _, err := Generate(g, GenConfig{Seed: 1, Start: end, End: start}); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestGenerateAdsOnlyProfiles(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 7, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	adsOnly := 0
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		if (p.Country == "IE" || p.Country == "ES") && epochs(p)[0].Categories == webcat.MakeSet(webcat.Ads) {
			adsOnly++
		}
	}
	if adsOnly == 0 {
		t.Error("no ad-vendor-only censors (paper: IE/ES censor only ad URLs)")
	}
}

// TestGeneratePolicyChangesDefaultUnchanged pins the byte-compatibility of
// the multi-change scheduler: PolicyChanges unset (default 1) and an
// explicit 1 must produce identical registries, epoch for epoch.
func TestGeneratePolicyChangesDefaultUnchanged(t *testing.T) {
	g := genGraph(t)
	implicit, err := Generate(g, GenConfig{Seed: 7, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Generate(g, GenConfig{Seed: 7, Start: start, End: end, PolicyChanges: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := implicit.ASNs(), explicit.ASNs()
	if len(a) != len(b) {
		t.Fatalf("censor counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("censor %d differs: %v vs %v", i, a[i], b[i])
		}
		pa, _ := implicit.Policy(a[i])
		pb, _ := explicit.Policy(b[i])
		ea, eb := epochs(pa), epochs(pb)
		if len(ea) != len(eb) {
			t.Fatalf("%v: epoch counts differ: %d vs %d", a[i], len(ea), len(eb))
		}
		for j := range ea {
			if !ea[j].Start.Equal(eb[j].Start) || ea[j].Techniques != eb[j].Techniques || ea[j].Categories != eb[j].Categories {
				t.Fatalf("%v epoch %d differs: %+v vs %+v", a[i], j, ea[j], eb[j])
			}
		}
	}
}

// TestGeneratePolicyChangesMulti exercises the flap regime: with a high
// change probability and a raised cap, some censor must accumulate several
// chronological changes.
func TestGeneratePolicyChangesMulti(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{
		Seed: 8, Start: start, End: end,
		PolicyChangeProb: 0.95, PolicyChanges: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		eps := epochs(p)
		if n := len(eps) - 1; n > most {
			most = n
		}
		for j := 1; j < len(eps); j++ {
			if j > 1 && !eps[j-1].Start.Before(eps[j].Start) {
				t.Fatalf("%v: changes out of order: %v then %v", asn, eps[j-1].Start, eps[j].Start)
			}
			if eps[j].Start.Before(start) || !eps[j].Start.Before(end) {
				t.Fatalf("%v: change at %v outside window", asn, eps[j].Start)
			}
		}
	}
	if most < 2 {
		t.Errorf("no censor accumulated 2+ changes at prob 0.95 cap 4 (max %d)", most)
	}
}

// TestGeneratePolicyChangesDisabled pins the documented sentinel: a
// negative PolicyChangeProb yields a registry whose policies never change.
func TestGeneratePolicyChangesDisabled(t *testing.T) {
	g := genGraph(t)
	reg, err := Generate(g, GenConfig{Seed: 9, Start: start, End: end, PolicyChangeProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		if len(epochs(p)) != 1 {
			t.Errorf("censor %v changed policy %d times with PolicyChangeProb -1",
				asn, len(epochs(p))-1)
		}
	}
	// The negative PolicyChanges sentinel disables changes too.
	reg2, err := Generate(g, GenConfig{Seed: 9, Start: start, End: end, PolicyChanges: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range reg2.ASNs() {
		p, _ := reg2.Policy(asn)
		if len(epochs(p)) != 1 {
			t.Errorf("censor %v changed policy %d times with PolicyChanges -1",
				asn, len(epochs(p))-1)
		}
	}
}
