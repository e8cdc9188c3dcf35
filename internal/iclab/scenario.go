package iclab

import (
	"fmt"
	"math/rand/v2"
	"time"

	"churntomo/internal/blockpage"
	"churntomo/internal/censor"
	"churntomo/internal/ipasmap"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
	"churntomo/internal/routing"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
)

// Vantage is one measurement vantage point.
type Vantage struct {
	ASN     topology.ASN
	Idx     int32 // topology index
	Country string
	IP      netaddr.IP
}

// Target is one test-list URL and the server hosting it.
type Target struct {
	URL       webcat.URL
	ASN       topology.ASN
	Idx       int32
	IP        netaddr.IP
	ServerTTL uint8
	Body      []byte // the censor-free page
}

// Scenario bundles everything a platform run needs. Its censor registry
// must not change once BuildScenario returns, which renders every
// censor's blockpage.
type Scenario struct {
	Graph        *topology.Graph
	Oracle       *routing.Oracle
	Censors      *censor.Registry
	DB           *ipasmap.DB
	Fingerprints *blockpage.FingerprintDB

	Vantages []Vantage
	Targets  []Target

	Start, End  time.Time
	ResolverIdx int32
	Seed        uint64

	// ECMPPaths is the number of coexisting forwarding planes measurements
	// sample (see ScenarioConfig.ECMPPaths); <= 1 means single-plane.
	ECMPPaths int

	// blockpages holds the page every censor's Block injector serves,
	// rendered once per (template, country) by BuildScenario and shared
	// read-only by every test.
	blockpages map[pageKey][]byte
}

// pageKey names one rendered blockpage: a template in one country.
type pageKey struct {
	template int
	country  string
}

// ScenarioConfig parameterizes vantage/target selection.
type ScenarioConfig struct {
	Seed     uint64
	Vantages int // default 40
	URLs     int // default 80

	// FingerprintCoverage is the fraction of blockpage templates known to
	// the detection corpus. Default 0.85.
	FingerprintCoverage float64
	// VantageNeutralBias is the probability a vantage is drawn from a
	// non-censoring country — ICLab's fleet is mostly commercial VPNs in
	// western datacenters. Default 0.6.
	VantageNeutralBias float64

	// ECMPPaths models load-balanced multipath forwarding: each
	// measurement's flow hashes onto one of this many coexisting routing
	// planes (plane 0 canonical, higher planes re-rolling only the route
	// tie-breaks), so the same vantage-target pair samples different paths
	// — and potentially different censors — across repeats. 0 or 1 means
	// single-plane forwarding, byte-identical to a config without the
	// field.
	ECMPPaths int
}

func (c *ScenarioConfig) fillDefaults() {
	if c.Vantages == 0 {
		c.Vantages = 40
	}
	if c.URLs == 0 {
		c.URLs = 80
	}
	if c.FingerprintCoverage == 0 {
		c.FingerprintCoverage = 0.85
	}
	if c.VantageNeutralBias == 0 {
		c.VantageNeutralBias = 0.75
	}
}

// pcgStreamScenario is the vantage/target-selection RNG stream word
// ("iclab" in ASCII); stream words are module-unique, enforced by
// churnvet.
const pcgStreamScenario = 0x69636c6162 // "iclab"

// BuildScenario selects vantage points and targets over a prepared
// topology, routing oracle, censor registry and mapping database.
func BuildScenario(g *topology.Graph, o *routing.Oracle, reg *censor.Registry,
	db *ipasmap.DB, start, end time.Time, cfg ScenarioConfig) (*Scenario, error) {
	cfg.fillDefaults()
	if !start.Before(end) {
		return nil, fmt.Errorf("iclab: start %v not before end %v", start, end)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, pcgStreamScenario))

	censoringCountry := map[string]bool{}
	blockpages := map[pageKey][]byte{}
	for _, asn := range reg.ASNs() {
		p, _ := reg.Policy(asn)
		censoringCountry[p.Country] = true
		if k := (pageKey{p.Behavior.Blockpage, p.Country}); blockpages[k] == nil {
			blockpages[k] = blockpage.Render(k.template, k.country)
		}
	}

	// Vantage candidates: stub ASes (VPN hosts live in content ASes, some
	// volunteers in enterprise ASes), excluding the resolver AS.
	var neutral, censored []int32
	for i := range g.ASes {
		as := &g.ASes[i]
		if as.Role != topology.RoleStub || as.ASN == topology.ResolverASN {
			continue
		}
		if censoringCountry[as.Country] {
			censored = append(censored, int32(i))
		} else {
			neutral = append(neutral, int32(i))
		}
	}
	if len(neutral)+len(censored) < cfg.Vantages {
		return nil, fmt.Errorf("iclab: topology too small for %d vantages", cfg.Vantages)
	}

	s := &Scenario{
		Graph:        g,
		Oracle:       o,
		Censors:      reg,
		DB:           db,
		Fingerprints: blockpage.NewFingerprintDB(reg.Len()+8, cfg.FingerprintCoverage, cfg.Seed),
		Start:        start,
		End:          end,
		ResolverIdx:  g.MustIndex(topology.ResolverASN),
		Seed:         cfg.Seed,
		ECMPPaths:    cfg.ECMPPaths,
		blockpages:   blockpages,
	}

	taken := map[int32]bool{}
	pick := func(pool []int32) (int32, bool) {
		for tries := 0; tries < 4*len(pool); tries++ {
			idx := pool[rng.IntN(len(pool))]
			if !taken[idx] {
				taken[idx] = true
				return idx, true
			}
		}
		return 0, false
	}
	usedCountry := map[string]bool{}
	for len(s.Vantages) < cfg.Vantages {
		pool := neutral
		if rng.Float64() >= cfg.VantageNeutralBias || len(neutral) == 0 {
			pool = censored
		}
		if len(pool) == 0 {
			pool = neutral
		}
		// Cluster vantages: VPN fleets concentrate in a handful of hosting
		// countries, and that concentration is load-bearing for the
		// tomography — co-located vantages negate each other's access-side
		// ASes in the per-URL CNFs.
		if len(usedCountry) > 0 && rng.Float64() < 0.55 {
			var clustered []int32
			for _, idx := range pool {
				if usedCountry[g.ASes[idx].Country] && !taken[idx] {
					clustered = append(clustered, idx)
				}
			}
			if len(clustered) > 0 {
				pool = clustered
			}
		}
		idx, ok := pick(pool)
		if !ok {
			if idx, ok = pick(append(append([]int32{}, neutral...), censored...)); !ok {
				return nil, fmt.Errorf("iclab: exhausted vantage candidates at %d", len(s.Vantages))
			}
		}
		as := &g.ASes[idx]
		usedCountry[as.Country] = true
		s.Vantages = append(s.Vantages, Vantage{
			ASN: as.ASN, Idx: idx, Country: as.Country, IP: g.HostIP(idx, 100+len(s.Vantages)),
		})
	}

	// Targets: content ASes host the URLs (web servers), excluding vantage
	// ASes so source and destination stay disjoint. Hosting skews heavily
	// toward non-censoring countries — the paper's test-list URLs sit in
	// western datacenters even when their content concerns other regions —
	// so most censorship happens in transit, not at the destination.
	var hostsNeutral, hostsCensored []int32
	for i := range g.ASes {
		as := &g.ASes[i]
		if as.Class == topology.ClassContent && !taken[int32(i)] && as.ASN != topology.ResolverASN {
			if censoringCountry[as.Country] {
				hostsCensored = append(hostsCensored, int32(i))
			} else {
				hostsNeutral = append(hostsNeutral, int32(i))
			}
		}
	}
	if len(hostsNeutral)+len(hostsCensored) == 0 {
		return nil, fmt.Errorf("iclab: no content ASes available for targets")
	}
	urls := webcat.GenURLs(cfg.Seed^0x75726c, cfg.URLs)
	for i, u := range urls {
		pool := hostsNeutral
		if len(pool) == 0 || (rng.Float64() > 0.85 && len(hostsCensored) > 0) {
			pool = hostsCensored
		}
		idx := pool[rng.IntN(len(pool))]
		as := &g.ASes[idx]
		bodyLen := 900 + rng.IntN(5200)
		ttl := netsim.InitTTLLinux
		if rng.Float64() < 0.3 {
			ttl = netsim.InitTTLWindows
		}
		s.Targets = append(s.Targets, Target{
			URL: u, ASN: as.ASN, Idx: idx,
			IP:        g.HostIP(idx, 200+i),
			ServerTTL: ttl,
			Body:      renderPage(u.Host, bodyLen),
		})
	}
	return s, nil
}

// renderPage builds a deterministic page body for a host.
func renderPage(host string, size int) []byte {
	head := fmt.Sprintf("<html><head><title>%s</title></head><body><h1>%s</h1>", host, host)
	b := make([]byte, 0, size)
	b = append(b, head...)
	for i := 0; len(b) < size; i++ {
		b = append(b, fmt.Sprintf("<p>content block %d for %s</p>", i, host)...)
	}
	return append(b[:size-7:size-7], "</body>"...)
}
