package leakage

import (
	"sort"

	"churntomo/internal/sat"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
)

// Leak describes one censoring AS's leakage.
type Leak struct {
	Censor        topology.ASN
	CensorCountry string
	// VictimASes are upstream, non-censoring ASes affected by this censor
	// (any country, including the censor's own — "leaks to other ASes").
	VictimASes map[topology.ASN]bool
	// VictimCountries are the victim ASes' countries, excluding the
	// censor's own ("leakage extending to other countries").
	VictimCountries map[string]bool
}

// Analysis is the full leakage result.
type Analysis struct {
	// ByCensor maps each identified censor with at least one victim AS.
	ByCensor map[topology.ASN]*Leak
	// Flow counts, per (censor country, victim country) pair with
	// different endpoints, the number of distinct (censor, victim-AS)
	// relationships — Figure 5's edge weights.
	Flow map[FlowEdge]int
}

// FlowEdge is one directed country-level leakage edge.
type FlowEdge struct {
	From string // censor's country
	To   string // victims' country
}

// Analyze runs §3.3 over solved outcomes. The country of an AS comes from
// the topology; ASes missing from it (bogus mapping artifacts) are skipped.
func Analyze(outcomes []tomo.Outcome, g *topology.Graph) *Analysis {
	a := &Analysis{ByCensor: map[topology.ASN]*Leak{}, Flow: map[FlowEdge]int{}}
	type flowSeen struct {
		censor topology.ASN
		victim topology.ASN
	}
	seenFlow := map[flowSeen]bool{}

	for _, o := range outcomes {
		if o.Class != sat.Unique {
			continue
		}
		censorSet := map[topology.ASN]bool{}
		for _, c := range o.Censors {
			censorSet[c] = true
		}
		if len(censorSet) == 0 {
			continue // all-False solution: nothing leaks
		}
		for _, path := range o.Inst.PositivePaths {
			for idx, as := range path {
				if !censorSet[as] {
					continue
				}
				cCountry := g.CountryOf(as)
				if cCountry == "" {
					continue
				}
				leak := a.ByCensor[as]
				if leak == nil {
					leak = &Leak{
						Censor:          as,
						CensorCountry:   cCountry,
						VictimASes:      map[topology.ASN]bool{},
						VictimCountries: map[string]bool{},
					}
					a.ByCensor[as] = leak
				}
				// Upstream of the censor: indices before it on the path
				// (closer to the vantage point).
				for up := 0; up < idx; up++ {
					victim := path[up]
					if censorSet[victim] {
						continue // condition (1): victims are False-assigned
					}
					vCountry := g.CountryOf(victim)
					if vCountry == "" {
						continue
					}
					leak.VictimASes[victim] = true
					if vCountry != cCountry {
						leak.VictimCountries[vCountry] = true
						key := flowSeen{as, victim}
						if !seenFlow[key] {
							seenFlow[key] = true
							a.Flow[FlowEdge{cCountry, vCountry}]++
						}
					}
				}
			}
		}
	}
	// Drop censors that leaked to nothing (stub censors whose victims are
	// only themselves).
	for asn, leak := range a.ByCensor {
		if len(leak.VictimASes) == 0 {
			delete(a.ByCensor, asn)
		}
	}
	return a
}

// LeakToOtherASes counts censors with at least one victim AS (the paper's
// "32 censoring ASes leak their censorship policies to other ASes").
func (a *Analysis) LeakToOtherASes() int { return len(a.ByCensor) }

// LeakToOtherCountries counts censors whose leakage crosses a border (the
// paper's "24 have censorship leakage extending to other countries").
func (a *Analysis) LeakToOtherCountries() int {
	n := 0
	for _, l := range a.ByCensor {
		if len(l.VictimCountries) > 0 {
			n++
		}
	}
	return n
}

// TopLeaker is one Table 3 row.
type TopLeaker struct {
	ASN             topology.ASN
	Name            string
	Country         string
	LeakedASes      int
	LeakedCountries int
}

// TopLeakers returns the full Table 3 ranking: every leaking censor,
// ordered by victim-AS count (ties by victim-country count, then ASN).
// A caller that wants the top n slices the result.
func (a *Analysis) TopLeakers(g *topology.Graph) []TopLeaker {
	rows := make([]TopLeaker, 0, len(a.ByCensor))
	for asn, l := range a.ByCensor {
		name := ""
		if as, ok := g.ByASN(asn); ok {
			name = as.Name
		}
		rows = append(rows, TopLeaker{
			ASN: asn, Name: name, Country: l.CensorCountry,
			LeakedASes: len(l.VictimASes), LeakedCountries: len(l.VictimCountries),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].LeakedASes != rows[j].LeakedASes {
			return rows[i].LeakedASes > rows[j].LeakedASes
		}
		if rows[i].LeakedCountries != rows[j].LeakedCountries {
			return rows[i].LeakedCountries > rows[j].LeakedCountries
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}

// FlowEdges lists the country-level flow sorted by weight (descending),
// then lexicographically — Figure 5's edge list.
func (a *Analysis) FlowEdges() []WeightedEdge {
	out := make([]WeightedEdge, 0, len(a.Flow))
	for e, w := range a.Flow {
		out = append(out, WeightedEdge{e, w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

// WeightedEdge is one Figure 5 edge with its weight.
type WeightedEdge struct {
	Edge   FlowEdge
	Weight int
}

// RegionalFrac reports the fraction of cross-border leakage weight that
// stays within the censor's region — the paper's observation that, China
// aside, leakage is mostly regional.
func (a *Analysis) RegionalFrac(g *topology.Graph, excludeCountries ...string) float64 {
	excluded := map[string]bool{}
	for _, c := range excludeCountries {
		excluded[c] = true
	}
	regionOf := func(country string) (topology.Region, bool) {
		c, ok := topology.CountryByCode(country)
		return c.Region, ok
	}
	total, regional := 0, 0
	for e, w := range a.Flow {
		if excluded[e.From] {
			continue
		}
		fr, ok1 := regionOf(e.From)
		to, ok2 := regionOf(e.To)
		if !ok1 || !ok2 {
			continue
		}
		total += w
		if fr == to {
			regional += w
		}
	}
	if total == 0 {
		return 0
	}
	return float64(regional) / float64(total)
}
