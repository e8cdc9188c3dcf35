package topology

import (
	"fmt"
	"math/rand/v2"

	"churntomo/internal/netaddr"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS123" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", a) }

// Role is the structural role of an AS in the routing hierarchy.
type Role uint8

// Structural roles.
const (
	RoleTier1 Role = iota // member of the top clique, peers with all other tier-1s
	RoleTransit
	RoleStub
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleTier1:
		return "tier1"
	case RoleTransit:
		return "transit"
	case RoleStub:
		return "stub"
	default:
		return "unknown"
	}
}

// Class mirrors CAIDA's AS classification (transit/access, content,
// enterprise), which the paper uses to check whether churn depends on the
// destination class (it does not — Figure 3 discussion).
type Class uint8

// CAIDA-style classes.
const (
	ClassTransit Class = iota
	ClassContent
	ClassEnterprise
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassTransit:
		return "transit"
	case ClassContent:
		return "content"
	case ClassEnterprise:
		return "enterprise"
	default:
		return "unknown"
	}
}

// Rel is the business relationship a neighbor has from the viewpoint of the
// AS holding the adjacency list entry.
type Rel uint8

// Relationships.
const (
	RelProvider Rel = iota // the neighbor sells us transit
	RelCustomer            // the neighbor buys transit from us
	RelPeer                // settlement-free peer
)

// String returns the relationship name.
func (r Rel) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	default:
		return "unknown"
	}
}

// AS is one autonomous system.
type AS struct {
	ASN      ASN
	Name     string
	Country  string // country code, see World
	Region   Region
	Role     Role
	Class    Class
	Prefixes []netaddr.Prefix
}

// Link is an inter-AS adjacency. For customer-provider links, A is the
// customer and B the provider; for peer links the order is arbitrary.
type Link struct {
	ID   int32
	A, B int32 // AS indices into Graph.ASes
	Peer bool
}

// Neighbor is one adjacency-list entry.
type Neighbor struct {
	Idx  int32 // index of the neighboring AS
	Link int32 // index into Graph.Links
	Rel  Rel   // the neighbor's relationship to this AS
}

// Graph is a generated AS-level topology. It is immutable after generation;
// link failures are modeled externally (see internal/routing) as a set of
// down link IDs.
type Graph struct {
	ASes      []AS
	Links     []Link
	Neighbors [][]Neighbor // indexed like ASes

	// ResolverIP is the anycast open-resolver address (the 8.8.8.8 role),
	// hosted by the AS with ResolverASN.
	ResolverIP netaddr.IP

	byASN map[ASN]int32
}

// Index returns the slice index for an ASN.
func (g *Graph) Index(a ASN) (int32, bool) {
	i, ok := g.byASN[a]
	return i, ok
}

// MustIndex is Index for ASNs known to exist; it panics otherwise.
func (g *Graph) MustIndex(a ASN) int32 {
	i, ok := g.byASN[a]
	if !ok {
		panic(fmt.Sprintf("topology: unknown %v", a))
	}
	return i
}

// ByASN returns the AS record for an ASN.
func (g *Graph) ByASN(a ASN) (*AS, bool) {
	i, ok := g.byASN[a]
	if !ok {
		return nil, false
	}
	return &g.ASes[i], true
}

// CountryOf returns the country code of an ASN, or "" if unknown.
func (g *Graph) CountryOf(a ASN) string {
	if as, ok := g.ByASN(a); ok {
		return as.Country
	}
	return ""
}

// MetadataGraph builds a lookup-only Graph from an AS metadata table — the
// shape a dataset import reconstructs. It carries no links, neighbors or
// prefixes: ByASN, Index, CountryOf and iteration over ASes work (enough
// for censor enrichment, leakage attribution and churn-by-class), while
// routing over it is undefined.
func MetadataGraph(ases []AS) *Graph {
	g := &Graph{
		ASes:  append([]AS(nil), ases...),
		byASN: make(map[ASN]int32, len(ases)),
	}
	for i := range g.ASes {
		g.byASN[g.ASes[i].ASN] = int32(i)
	}
	return g
}

// GenConfig parameterizes topology generation.
type GenConfig struct {
	Seed      uint64
	ASes      int // total AS count, including tier-1s; minimum 16
	Tier1     int // size of the top clique; default 8
	Countries int // how many World countries to use; default 30

	// TransitFrac is the fraction of non-tier-1 ASes acting as regional
	// transit providers. Default 0.18.
	TransitFrac float64
	// ContentFrac is the fraction of stub ASes classified as content
	// (candidate measurement destinations and VPN hosts). Default 0.3.
	ContentFrac float64
	// ForeignProviderProb is the probability that a stub buys transit from
	// an AS outside its own country — the structural precondition for
	// censorship leakage. Default 0.15.
	ForeignProviderProb float64
	// PeerProb is the probability that two transit ASes in the same region
	// establish a settlement-free peering. Default 0.25.
	PeerProb float64
}

func (c *GenConfig) fillDefaults() {
	if c.ASes == 0 {
		c.ASes = 400
	}
	if c.Tier1 == 0 {
		c.Tier1 = 8
	}
	if c.Countries == 0 {
		c.Countries = 30
	}
	if c.Countries > len(World) {
		c.Countries = len(World)
	}
	if c.TransitFrac == 0 {
		c.TransitFrac = 0.18
	}
	if c.ContentFrac == 0 {
		c.ContentFrac = 0.3
	}
	if c.ForeignProviderProb == 0 {
		c.ForeignProviderProb = 0.06
	}
	if c.PeerProb == 0 {
		c.PeerProb = 0.25
	}
}

// Validate reports configuration errors.
func (c *GenConfig) Validate() error {
	cc := *c
	cc.fillDefaults()
	if cc.ASes < 16 {
		return fmt.Errorf("topology: need at least 16 ASes, got %d", cc.ASes)
	}
	if cc.Tier1 < 2 || cc.Tier1 > len(tier1Flavor) {
		return fmt.Errorf("topology: tier1 count %d outside [2,%d]", cc.Tier1, len(tier1Flavor))
	}
	if cc.Tier1 >= cc.ASes/2 {
		return fmt.Errorf("topology: tier1 count %d too large for %d ASes", cc.Tier1, cc.ASes)
	}
	return nil
}

// generator carries state during a single Generate call.
type generator struct {
	cfg GenConfig
	rng *rand.Rand
	g   *Graph

	usedASN   map[ASN]bool
	nextBlock uint32 // next /16 block index for prefix allocation
}

// pcgStreamTopology is the graph generator's RNG stream word (truncated
// "topology" in ASCII; the historical seed value is kept so existing
// golden worlds reproduce). Stream words are module-unique, enforced by
// churnvet.
const pcgStreamTopology = 0x70706f6c6f6779 // "ppology"

// Generate builds a topology from cfg. Identical configs produce identical
// graphs.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	gen := &generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewPCG(cfg.Seed, pcgStreamTopology)),
		g:         &Graph{byASN: make(map[ASN]int32)},
		usedASN:   make(map[ASN]bool),
		nextBlock: 20 << 8, // allocate /16s starting at 20.0.0.0
	}
	gen.build()
	return gen.g, nil
}

func (gen *generator) build() {
	countries := World[:gen.cfg.Countries]

	// Distribute non-tier-1 ASes over countries proportionally to weight.
	remaining := gen.cfg.ASes - gen.cfg.Tier1 - 1 // -1 for the resolver AS
	totalWeight := 0
	for _, c := range countries {
		totalWeight += c.Weight
	}
	perCountry := make([]int, len(countries))
	assigned := 0
	for i, c := range countries {
		perCountry[i] = remaining * c.Weight / totalWeight
		assigned += perCountry[i]
	}
	for i := 0; assigned < remaining; i, assigned = i+1, assigned+1 {
		perCountry[i%len(countries)]++
	}

	gen.addTier1s(countries)
	gen.addResolver()

	// Per-country transit and stubs.
	var transitByCountry = make(map[string][]int32)
	var transitByRegion = make(map[Region][]int32)
	for i := range gen.g.ASes {
		if gen.g.ASes[i].Role == RoleTier1 {
			transitByRegion[gen.g.ASes[i].Region] = append(transitByRegion[gen.g.ASes[i].Region], int32(i))
		}
	}
	for ci, c := range countries {
		n := perCountry[ci]
		if n == 0 {
			continue
		}
		nTransit := int(float64(n)*gen.cfg.TransitFrac + 0.5)
		if nTransit == 0 && n >= 3 {
			nTransit = 1
		}
		flavor := append([]flavorAS(nil), countryFlavor[c.Code]...)
		for t := 0; t < nTransit; t++ {
			idx := gen.addAS(c, RoleTransit, ClassTransit, &flavor, 2)
			gen.connectTransit(idx, transitByCountry[c.Code], transitByRegion[c.Region])
			transitByCountry[c.Code] = append(transitByCountry[c.Code], idx)
			transitByRegion[c.Region] = append(transitByRegion[c.Region], idx)
		}
		for s := 0; s < n-nTransit; s++ {
			class := ClassEnterprise
			if gen.rng.Float64() < gen.cfg.ContentFrac {
				class = ClassContent
			}
			idx := gen.addAS(c, RoleStub, class, &flavor, 1)
			gen.connectStub(idx, transitByCountry, transitByRegion)
		}
	}
}

func (gen *generator) addTier1s(countries []Country) {
	var idxs []int32
	for i := 0; i < gen.cfg.Tier1; i++ {
		f := tier1Flavor[i]
		code := tier1Country[f.ASN]
		country, ok := CountryByCode(code)
		if !ok || !gen.countryInUse(countries, code) {
			country = countries[i%len(countries)]
		}
		idx := gen.appendAS(AS{
			ASN:     f.ASN,
			Name:    f.Name,
			Country: country.Code,
			Region:  country.Region,
			Role:    RoleTier1,
			Class:   ClassTransit,
		}, 3)
		idxs = append(idxs, idx)
	}
	// Full mesh of peer links.
	for i := 0; i < len(idxs); i++ {
		for j := i + 1; j < len(idxs); j++ {
			gen.addLink(idxs[i], idxs[j], true)
		}
	}
}

func (gen *generator) countryInUse(countries []Country, code string) bool {
	for _, c := range countries {
		if c.Code == code {
			return true
		}
	}
	return false
}

// addResolver creates the open-resolver content AS and homes it to two
// tier-1 providers, mimicking a globally well-connected anycast network.
func (gen *generator) addResolver() {
	us, _ := CountryByCode("US")
	idx := gen.appendAS(AS{
		ASN:     ResolverASN,
		Name:    resolverName,
		Country: us.Code,
		Region:  us.Region,
		Role:    RoleStub,
		Class:   ClassContent,
	}, 0)
	gen.usedASN[ResolverASN] = true
	// Dedicated, stable prefix so the resolver address is recognizable.
	pfx := netaddr.MustParsePrefix("8.8.8.0/24")
	gen.g.ASes[idx].Prefixes = []netaddr.Prefix{pfx}
	gen.g.ResolverIP = netaddr.MustParseIP("8.8.8.8")

	n := 0
	for i := range gen.g.ASes {
		if gen.g.ASes[i].Role == RoleTier1 && n < 2 {
			gen.addLink(idx, int32(i), false)
			n++
		}
	}
}

// addAS creates one AS in country c, consuming flavor names when available.
func (gen *generator) addAS(c Country, role Role, class Class, flavor *[]flavorAS, prefixes int) int32 {
	var (
		asn  ASN
		name string
	)
	for len(*flavor) > 0 {
		f := (*flavor)[0]
		*flavor = (*flavor)[1:]
		if !gen.usedASN[f.ASN] {
			asn, name = f.ASN, f.Name
			break
		}
	}
	if asn == 0 {
		asn = gen.freshASN()
		kind := "NET"
		switch {
		case role == RoleTransit:
			kind = "TRANSIT"
		case class == ClassContent:
			kind = "HOSTING"
		}
		name = fmt.Sprintf("%s-%s-%d", c.Code, kind, asn%1000)
	}
	return gen.appendAS(AS{
		ASN:     asn,
		Name:    name,
		Country: c.Code,
		Region:  c.Region,
		Role:    role,
		Class:   class,
	}, prefixes)
}

func (gen *generator) appendAS(as AS, prefixes int) int32 {
	idx := int32(len(gen.g.ASes))
	gen.usedASN[as.ASN] = true
	for p := 0; p < prefixes; p++ {
		as.Prefixes = append(as.Prefixes, gen.allocPrefix())
	}
	gen.g.ASes = append(gen.g.ASes, as)
	gen.g.Neighbors = append(gen.g.Neighbors, nil)
	gen.g.byASN[as.ASN] = idx
	return idx
}

func (gen *generator) freshASN() ASN {
	for {
		a := ASN(gen.rng.IntN(190000) + 10000)
		if !gen.usedASN[a] {
			return a
		}
	}
}

// allocPrefix hands out sequential /16 blocks, skipping space reserved for
// the resolver and anything above 223.0.0.0 (multicast).
func (gen *generator) allocPrefix() netaddr.Prefix {
	for {
		block := gen.nextBlock
		gen.nextBlock++
		first := byte(block >> 8)
		if first >= 224 {
			panic("topology: address space exhausted")
		}
		p := netaddr.MakePrefix(netaddr.MakeIP(first, byte(block), 0, 0), 16)
		if p.Overlaps(netaddr.MustParsePrefix("8.8.8.0/24")) {
			continue
		}
		return p
	}
}

// addLink wires a and b; for non-peer links a is the customer.
func (gen *generator) addLink(a, b int32, peer bool) {
	id := int32(len(gen.g.Links))
	gen.g.Links = append(gen.g.Links, Link{ID: id, A: a, B: b, Peer: peer})
	if peer {
		gen.g.Neighbors[a] = append(gen.g.Neighbors[a], Neighbor{Idx: b, Link: id, Rel: RelPeer})
		gen.g.Neighbors[b] = append(gen.g.Neighbors[b], Neighbor{Idx: a, Link: id, Rel: RelPeer})
		return
	}
	gen.g.Neighbors[a] = append(gen.g.Neighbors[a], Neighbor{Idx: b, Link: id, Rel: RelProvider})
	gen.g.Neighbors[b] = append(gen.g.Neighbors[b], Neighbor{Idx: a, Link: id, Rel: RelCustomer})
}

// connectTransit homes a new transit AS: one or two providers drawn from
// tier-1s and earlier regional transits, plus regional peerings.
func (gen *generator) connectTransit(idx int32, sameCountry, sameRegion []int32) {
	providers := gen.pickProviders(idx, sameCountry, sameRegion, 1+gen.rng.IntN(2))
	for _, p := range providers {
		gen.addLink(idx, p, false)
	}
	// Regional peering among transits.
	for _, other := range sameRegion {
		if other == idx || gen.g.ASes[other].Role == RoleTier1 {
			continue
		}
		if gen.rng.Float64() < gen.cfg.PeerProb {
			gen.addLink(idx, other, true)
		}
	}
}

// connectStub homes a stub with one to three providers, mostly domestic.
func (gen *generator) connectStub(idx int32, byCountry map[string][]int32, byRegion map[Region][]int32) {
	as := &gen.g.ASes[idx]
	n := 1 + gen.rng.IntN(3) // 1..3 providers; multi-homing drives path churn
	if as.Class == ClassContent {
		n = 2 + gen.rng.IntN(3) // datacenters: 2..4 upstreams
	}
	domestic := byCountry[as.Country]
	regional := byRegion[as.Region]
	chosen := map[int32]bool{}
	for i := 0; i < n; i++ {
		var pool []int32
		switch {
		case gen.rng.Float64() < gen.cfg.ForeignProviderProb:
			pool = gen.allTransit()
		case len(domestic) > 0 && gen.rng.Float64() < 0.8:
			pool = domestic
		case len(regional) > 0:
			pool = regional
		default:
			pool = gen.allTransit()
		}
		if len(pool) == 0 {
			pool = gen.allTransit()
		}
		p := pool[gen.rng.IntN(len(pool))]
		if p == idx || chosen[p] {
			continue
		}
		chosen[p] = true
		gen.addLink(idx, p, false)
	}
	if len(chosen) == 0 { // guarantee connectivity
		pool := gen.allTransit()
		for {
			p := pool[gen.rng.IntN(len(pool))]
			if p != idx {
				gen.addLink(idx, p, false)
				break
			}
		}
	}
}

func (gen *generator) allTransit() []int32 {
	var out []int32
	for i := range gen.g.ASes {
		if r := gen.g.ASes[i].Role; r == RoleTier1 || r == RoleTransit {
			out = append(out, int32(i))
		}
	}
	return out
}

// pickProviders selects up to n distinct providers for a transit AS,
// preferring the same country, then region, then tier-1s.
func (gen *generator) pickProviders(idx int32, sameCountry, sameRegion []int32, n int) []int32 {
	var tier1 []int32
	for i := range gen.g.ASes {
		if gen.g.ASes[i].Role == RoleTier1 {
			tier1 = append(tier1, int32(i))
		}
	}
	chosen := map[int32]bool{}
	var out []int32
	pools := [][]int32{sameCountry, sameRegion, tier1}
	for len(out) < n {
		var pool []int32
		switch r := gen.rng.Float64(); {
		case r < 0.35 && len(pools[0]) > 0:
			pool = pools[0]
		case r < 0.6 && len(pools[1]) > 0:
			pool = pools[1]
		default:
			pool = tier1
		}
		p := pool[gen.rng.IntN(len(pool))]
		if p == idx || chosen[p] {
			// Avoid spinning when pools are tiny.
			if len(chosen) >= len(tier1)+len(sameRegion) {
				break
			}
			continue
		}
		chosen[p] = true
		out = append(out, p)
	}
	if len(out) == 0 {
		// Always at least one tier-1 provider so the graph stays connected.
		out = append(out, tier1[gen.rng.IntN(len(tier1))])
	}
	return out
}

// RouterIP returns the i-th router address of an AS (used by the traceroute
// simulator for hop addresses). Router addresses are drawn from the end of
// the AS's first prefix so they do not collide with host allocations.
func (g *Graph) RouterIP(idx int32, i int) netaddr.IP {
	as := &g.ASes[idx]
	p := as.Prefixes[0]
	n := p.NumAddrs()
	return p.Nth(n - 2 - uint64(i)%16)
}

// HostIP returns a stable host address inside the AS's first prefix.
func (g *Graph) HostIP(idx int32, i int) netaddr.IP {
	as := &g.ASes[idx]
	p := as.Prefixes[0]
	return p.Nth(1 + uint64(i)%(p.NumAddrs()/2))
}
