package topology

import (
	"testing"

	"churntomo/internal/netaddr"
)

func testGraph(t *testing.T, cfg GenConfig) *Graph {
	t.Helper()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 42, ASes: 120}
	a := testGraph(t, cfg)
	b := testGraph(t, cfg)
	if len(a.ASes) != len(b.ASes) || len(a.Links) != len(b.Links) {
		t.Fatalf("same seed produced different sizes: %d/%d vs %d/%d",
			len(a.ASes), len(a.Links), len(b.ASes), len(b.Links))
	}
	for i := range a.ASes {
		if a.ASes[i].ASN != b.ASes[i].ASN || a.ASes[i].Country != b.ASes[i].Country {
			t.Fatalf("AS %d differs across runs", i)
		}
	}
	c := testGraph(t, GenConfig{Seed: 43, ASes: 120})
	same := len(a.Links) == len(c.Links)
	if same {
		diff := false
		for i := range a.ASes {
			if a.ASes[i].ASN != c.ASes[i].ASN {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := GenConfig{Seed: 1, ASes: 200, Tier1: 6}
	g := testGraph(t, cfg)
	if got := len(g.ASes); got != 200 {
		t.Errorf("generated %d ASes, want 200", got)
	}
	if n := countRole(g, RoleTier1); n != 6 {
		t.Errorf("generated %d tier-1s, want 6", n)
	}
	if n := countRole(g, RoleTransit); n == 0 {
		t.Error("no transit ASes generated")
	}
	if n := countRole(g, RoleStub); n < 100 {
		t.Errorf("only %d stubs generated", n)
	}
}

// countRole counts g's ASes with role r.
func countRole(g *Graph, r Role) int {
	n := 0
	for i := range g.ASes {
		if g.ASes[i].Role == r {
			n++
		}
	}
	return n
}

func TestTier1Clique(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 7, ASes: 100, Tier1: 5})
	tier1 := map[int32]bool{}
	for i := range g.ASes {
		if g.ASes[i].Role == RoleTier1 {
			tier1[int32(i)] = true
		}
	}
	for i := range tier1 {
		peers := 0
		for _, nb := range g.Neighbors[i] {
			if tier1[nb.Idx] && nb.Rel == RelPeer {
				peers++
			}
		}
		if peers != len(tier1)-1 {
			t.Errorf("tier-1 %v peers with %d of %d clique members", g.ASes[i].ASN, peers, len(tier1)-1)
		}
	}
}

func TestEveryASConnected(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 3, ASes: 300})
	for i := range g.ASes {
		if len(g.Neighbors[i]) == 0 {
			t.Errorf("%v has no links", g.ASes[i].ASN)
		}
	}
	// Every non-tier-1 must have at least one provider (reachability to the
	// clique is what makes Gao–Rexford routing total).
	for i := range g.ASes {
		if g.ASes[i].Role == RoleTier1 {
			continue
		}
		hasProvider := false
		for _, nb := range g.Neighbors[i] {
			if nb.Rel == RelProvider {
				hasProvider = true
				break
			}
		}
		if !hasProvider {
			t.Errorf("%v (%v) has no provider", g.ASes[i].ASN, g.ASes[i].Role)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 11, ASes: 150})
	for i, nbs := range g.Neighbors {
		for _, nb := range nbs {
			found := false
			for _, back := range g.Neighbors[nb.Idx] {
				if back.Idx == int32(i) && back.Link == nb.Link {
					found = true
					// Relationship must invert correctly.
					switch nb.Rel {
					case RelPeer:
						if back.Rel != RelPeer {
							t.Errorf("asymmetric peer on link %d", nb.Link)
						}
					case RelProvider:
						if back.Rel != RelCustomer {
							t.Errorf("provider edge lacks customer back-edge on link %d", nb.Link)
						}
					case RelCustomer:
						if back.Rel != RelProvider {
							t.Errorf("customer edge lacks provider back-edge on link %d", nb.Link)
						}
					}
				}
			}
			if !found {
				t.Errorf("link %d missing reverse adjacency", nb.Link)
			}
		}
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 5, ASes: 250})
	var all []netaddr.Prefix
	for i := range g.ASes {
		if len(g.ASes[i].Prefixes) == 0 {
			t.Errorf("%v has no prefixes", g.ASes[i].ASN)
		}
		all = append(all, g.ASes[i].Prefixes...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Fatalf("prefixes overlap: %v and %v", all[i], all[j])
			}
		}
	}
}

func TestResolverAS(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 9, ASes: 100})
	as, ok := g.ByASN(ResolverASN)
	if !ok {
		t.Fatal("resolver AS missing")
	}
	if as.Class != ClassContent {
		t.Errorf("resolver class = %v", as.Class)
	}
	if !as.Prefixes[0].Contains(g.ResolverIP) {
		t.Errorf("resolver IP %v outside its prefix %v", g.ResolverIP, as.Prefixes[0])
	}
	idx := g.MustIndex(ResolverASN)
	if len(g.Neighbors[idx]) == 0 {
		t.Error("resolver AS is unconnected")
	}
}

func TestUniqueASNs(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 13, ASes: 500})
	seen := map[ASN]int{}
	for i := range g.ASes {
		seen[g.ASes[i].ASN]++
	}
	for a, n := range seen {
		if n > 1 {
			t.Errorf("%v assigned %d times", a, n)
		}
	}
}

func TestCountrySpread(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 17, ASes: 400, Countries: 25})
	used := map[string]bool{}
	for i := range g.ASes {
		used[g.ASes[i].Country] = true
	}
	if len(used) < 20 {
		t.Errorf("only %d countries in use, want >= 20", len(used))
	}
	// Flavor check: the heavyweight countries must exist and CN must carry
	// several ASes (it plays the exporter role in leakage experiments).
	cn := 0
	for i := range g.ASes {
		if g.ASes[i].Country == "CN" {
			cn++
		}
	}
	if cn < 5 {
		t.Errorf("CN has %d ASes, want >= 5", cn)
	}
}

func TestFlavorNames(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 2, ASes: 400, Countries: 30})
	if as, ok := g.ByASN(4134); !ok || as.Name != "CHINANET-BACKBONE" {
		t.Errorf("AS4134 flavor missing: %+v", as)
	}
	if as, ok := g.ByASN(1299); !ok || as.Name != "TELIANET" || as.Country != "SE" {
		t.Errorf("AS1299 flavor wrong: %+v", as)
	}
}

func TestRouterAndHostIPs(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 23, ASes: 100})
	for i := range g.ASes {
		idx := int32(i)
		for k := 0; k < 5; k++ {
			r := g.RouterIP(idx, k)
			h := g.HostIP(idx, k)
			if !g.ASes[i].Prefixes[0].Contains(r) {
				t.Fatalf("router IP %v outside prefix of %v", r, g.ASes[i].ASN)
			}
			if !g.ASes[i].Prefixes[0].Contains(h) {
				t.Fatalf("host IP %v outside prefix of %v", h, g.ASes[i].ASN)
			}
			if r == h {
				t.Fatalf("router and host IP collide for %v", g.ASes[i].ASN)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []GenConfig{
		{ASes: 5},
		{ASes: 100, Tier1: 1},
		{ASes: 100, Tier1: 60},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded, want error", cfg)
		}
	}
	good := GenConfig{ASes: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(default) failed: %v", err)
	}
}

func TestIndexLookups(t *testing.T) {
	g := testGraph(t, GenConfig{Seed: 31, ASes: 80})
	asn := g.ASes[10].ASN
	idx, ok := g.Index(asn)
	if !ok || idx != 10 {
		t.Errorf("Index(%v) = %d,%v", asn, idx, ok)
	}
	if _, ok := g.Index(ASN(999999999)); ok {
		t.Error("Index of unknown ASN succeeded")
	}
	if g.CountryOf(asn) == "" {
		t.Error("CountryOf known ASN empty")
	}
	if g.CountryOf(ASN(999999999)) != "" {
		t.Error("CountryOf unknown ASN non-empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIndex of unknown ASN should panic")
		}
	}()
	g.MustIndex(ASN(999999999))
}
