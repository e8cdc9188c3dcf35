package censor

// Tests for GenConfig.PinnedASes — the structural placement hook the
// chokepoint regime uses.

import (
	"testing"
	"time"

	"churntomo/internal/topology"
)

func pinnedStack(t *testing.T, seed uint64) (*topology.Graph, GenConfig) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: seed, ASes: 200, Countries: 20})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	return g, GenConfig{Seed: seed, Start: start, End: start.AddDate(0, 1, 0)}
}

// nonResolverASNs picks n distinct placeable ASNs from the graph.
func nonResolverASNs(g *topology.Graph, n int) []topology.ASN {
	out := make([]topology.ASN, 0, n)
	for i := range g.ASes {
		if g.ASes[i].ASN == topology.ResolverASN {
			continue
		}
		out = append(out, g.ASes[i].ASN)
		if len(out) == n {
			break
		}
	}
	return out
}

func TestGeneratePinnedExactSet(t *testing.T) {
	g, cfg := pinnedStack(t, 41)
	pins := nonResolverASNs(g, 5)
	// Non-nil empty Profiles + negative ExtraCountries: the registry is
	// exactly the pinned set.
	cfg.Profiles = []CountryProfile{}
	cfg.ExtraCountries = -1
	cfg.PinnedASes = pins
	reg, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != len(pins) {
		t.Fatalf("registry has %d censors, want exactly the %d pins: %v",
			reg.Len(), len(pins), reg.ASNs())
	}
	for _, asn := range pins {
		pol, ok := reg.Policy(asn)
		if !ok {
			t.Fatalf("pinned AS %v not in registry", asn)
		}
		if len(epochs(pol)) == 0 {
			t.Errorf("pinned AS %v has no policy epochs", asn)
		}
		for _, ep := range epochs(pol) {
			if ep.Techniques == 0 {
				t.Errorf("pinned AS %v epoch has no techniques", asn)
			}
			if ep.Categories == 0 {
				t.Errorf("pinned AS %v epoch blocks no categories", asn)
			}
		}
	}
}

func TestGeneratePinnedSkipsInvalid(t *testing.T) {
	g, cfg := pinnedStack(t, 42)
	valid := nonResolverASNs(g, 2)
	cfg.Profiles = []CountryProfile{}
	cfg.ExtraCountries = -1
	cfg.PinnedASes = []topology.ASN{
		valid[0],
		topology.ResolverASN,   // never censors
		topology.ASN(99999999), // unknown to the graph
		valid[0],               // duplicate of an already-placed pin
		valid[1],
	}
	reg, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry has %d censors, want 2 (resolver/unknown/duplicate skipped): %v",
			reg.Len(), reg.ASNs())
	}
	if _, ok := reg.Policy(topology.ResolverASN); ok {
		t.Error("resolver censoring despite the pin filter")
	}
}

func TestGeneratePinnedDeterministicAndAdditive(t *testing.T) {
	g, cfg := pinnedStack(t, 43)
	pins := nonResolverASNs(g, 3)
	cfg.Profiles = []CountryProfile{}
	cfg.ExtraCountries = -1
	cfg.PinnedASes = pins
	a, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aASNs, bASNs := a.ASNs(), b.ASNs()
	if len(aASNs) != len(bASNs) {
		t.Fatal("pinned generation not deterministic in size")
	}
	for i := range aASNs {
		if aASNs[i] != bASNs[i] {
			t.Fatal("pinned generation not deterministic in membership")
		}
	}

	// No pins is the byte-identical default path: the same config minus
	// PinnedASes must produce the same registry as before the field
	// existed — i.e. pins are purely additive after profiled placement.
	cfg2 := cfg
	cfg2.PinnedASes = nil
	empty, err := Generate(g, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("no-profile no-pin config generated %d censors", empty.Len())
	}
}
