package traceroute

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"churntomo/internal/ipasmap"
	"churntomo/internal/netaddr"
	"churntomo/internal/topology"
)

// Hop is one traceroute hop as recorded by the prober.
type Hop struct {
	IP        netaddr.IP // meaningful only when Responded
	Responded bool
}

// Trace is one traceroute run.
type Trace struct {
	Hops []Hop
	Err  bool // the traceroute failed outright (paper rule 2)
}

// Expansion is the ground-truth router-level path for one measurement: the
// data plane the probes and the HTTP/DNS packet simulations share, so hop
// distances (and hence TTL arithmetic) stay consistent within a test.
type Expansion struct {
	Hops []ExpHop
	// ASStart[i] is the index in Hops of the first router belonging to the
	// i-th AS of the AS path.
	ASStart []int
}

// ExpHop is one router on the ground-truth path.
type ExpHop struct {
	IP    netaddr.IP
	ASIdx int32
}

// Expand lays out router hops for an AS-index path ending at serverIP
// into e, a caller-owned expansion whose storage it reuses; every hop e
// held before is overwritten or dropped. Router counts scale with the
// AS's role (backbones traverse more hops).
func Expand(g *topology.Graph, idxPath []int32, serverIP netaddr.IP, rng *rand.Rand, e *Expansion) {
	e.Hops, e.ASStart = e.Hops[:0], e.ASStart[:0]
	for i, asIdx := range idxPath {
		e.ASStart = append(e.ASStart, len(e.Hops))
		n := 1
		switch g.ASes[asIdx].Role {
		case topology.RoleTier1:
			n = 2 + rng.IntN(2)
		case topology.RoleTransit:
			n = 1 + rng.IntN(2)
		}
		if i == 0 {
			n = 1 // the vantage's own gateway
		}
		for r := 0; r < n; r++ {
			e.Hops = append(e.Hops, ExpHop{IP: g.RouterIP(asIdx, rng.IntN(8)), ASIdx: asIdx})
		}
	}
	// Final hop: the server host itself.
	last := idxPath[len(idxPath)-1]
	e.Hops = append(e.Hops, ExpHop{IP: serverIP, ASIdx: last})
}

// ServerDist returns the hop distance from the client to the server (the
// number of router traversals a packet makes).
func (e Expansion) ServerDist() int { return len(e.Hops) }

// DistOfAS returns the hop distance from the client to the ingress router
// of the AS at position pathIdx in the AS path — where an on-path middlebox
// in that AS would sit.
func (e Expansion) DistOfAS(pathIdx int) int { return e.ASStart[pathIdx] + 1 }

// Config controls probe behaviour.
type Config struct {
	// NonResponseProb is the per-hop probability of a missing response.
	// Default 0.03.
	NonResponseProb float64
	// FailProb is the probability that a traceroute fails outright.
	// Default 0.01.
	FailProb float64
}

func (c *Config) fillDefaults() {
	if c.NonResponseProb == 0 {
		c.NonResponseProb = 0.006
	}
	if c.FailProb == 0 {
		c.FailProb = 0.008
	}
}

// Probe simulates one traceroute over the expansion into tr, a
// caller-owned trace whose hop storage it reuses: a failed trace keeps no
// hops, and every hop of one that ran is overwritten.
func Probe(e *Expansion, cfg Config, rng *rand.Rand, tr *Trace) {
	cfg.fillDefaults()
	tr.Hops, tr.Err = tr.Hops[:0], rng.Float64() < cfg.FailProb
	if tr.Err {
		return
	}
	tr.Hops = slices.Grow(tr.Hops, len(e.Hops))[:len(e.Hops)]
	for i, h := range e.Hops {
		p := cfg.NonResponseProb
		if i == len(e.Hops)-1 {
			p /= 3 // the server itself almost always answers
		}
		if rng.Float64() < p {
			tr.Hops[i] = Hop{}
			continue
		}
		tr.Hops[i] = Hop{IP: h.IP, Responded: true}
	}
}

// FailReason classifies why a trace (or trace set) yielded no usable AS
// path. The values map onto the paper's four elimination rules.
type FailReason uint8

// Inference outcomes.
const (
	OK                FailReason = iota
	ErrTraceFailed               // rule 2: traceroute error
	ErrNoMapping                 // rule 1: no IP mappable
	ErrSilentBoundary            // rule 3: silent hop between differing ASes
	ErrDisagree                  // rule 4: the three traceroutes disagree
)

// String names the failure reason.
func (r FailReason) String() string {
	switch r {
	case OK:
		return "ok"
	case ErrTraceFailed:
		return "traceroute-error"
	case ErrNoMapping:
		return "no-mapping"
	case ErrSilentBoundary:
		return "silent-boundary"
	case ErrDisagree:
		return "paths-disagree"
	default:
		return fmt.Sprintf("fail(%d)", uint8(r))
	}
}

// Infer converts one trace into an AS-level path. The vantage AS is known
// platform metadata (each record carries it), so it anchors the path; every
// other AS must be recovered from hop addresses via the mapping database.
func Infer(tr Trace, db *ipasmap.DB, at time.Time, vantage topology.ASN) ([]topology.ASN, FailReason) {
	if tr.Err {
		return nil, ErrTraceFailed
	}
	// Map hops; silent and unmappable hops both become unknowns.
	type slot struct {
		asn   topology.ASN
		known bool
	}
	slots := make([]slot, len(tr.Hops))
	anyMapped := false
	for i, h := range tr.Hops {
		if !h.Responded {
			continue
		}
		asn, ok := db.Lookup(h.IP, at)
		if !ok {
			continue
		}
		slots[i] = slot{asn, true}
		anyMapped = true
	}
	if !anyMapped {
		return nil, ErrNoMapping
	}

	path := []topology.ASN{vantage}
	last := vantage
	i := 0
	for i < len(slots) {
		if slots[i].known {
			if slots[i].asn != last {
				path = append(path, slots[i].asn)
				last = slots[i].asn
			}
			i++
			continue
		}
		// Unknown run: find the next known slot.
		j := i
		for j < len(slots) && !slots[j].known {
			j++
		}
		if j == len(slots) {
			// Trailing unknowns include the destination hop: the path's
			// end is unverifiable (paper folds this into rule 3).
			return nil, ErrSilentBoundary
		}
		if slots[j].asn != last {
			// The silent run hides an AS boundary: ambiguous.
			return nil, ErrSilentBoundary
		}
		i = j
	}
	return path, OK
}

// InferConsensus applies Infer to each of a measurement's traceroutes and
// then the paper's rule 4: if more than one distinct AS-level path emerges,
// the record is inconclusive. When individual traces fail for different
// reasons, the first failure in rule order is reported, but a single clean
// consensus among the successful traces is NOT enough — per the paper, a
// traceroute error eliminates the record.
func InferConsensus(traces []Trace, db *ipasmap.DB, at time.Time, vantage topology.ASN) ([]topology.ASN, FailReason) {
	if len(traces) == 0 {
		return nil, ErrTraceFailed
	}
	var consensus []topology.ASN
	for _, tr := range traces {
		path, why := Infer(tr, db, at, vantage)
		if why != OK {
			return nil, why
		}
		if consensus == nil {
			consensus = path
			continue
		}
		if !equalPath(consensus, path) {
			return nil, ErrDisagree
		}
	}
	return consensus, OK
}

func equalPath(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
