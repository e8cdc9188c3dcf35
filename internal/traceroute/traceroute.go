package traceroute

import (
	"fmt"
	"math/rand/v2"
	"slices"

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

// Inferrer converts a test's traceroutes into its AS-level path, in
// storage it reuses test after test: the paths of the test's traces and
// the mapping of their hops. The zero value is ready to use; an Inferrer
// belongs to one goroutine at a time.
type Inferrer struct {
	path, other []topology.ASN // the first trace's path, a later trace's
	hops        []mappedHop    // the test's hop mappings, by position
}

// mappedHop is what the test's snapshot maps a responding hop's address
// to; set is false at a position whose hop has not been mapped.
type mappedHop struct {
	ip         netaddr.IP
	asn        topology.ASN
	known, set bool
}

// Consensus applies the paper's elimination rules to a test's
// traceroutes. Each trace maps its hops through snap, the IP-to-AS
// snapshot in force at the test's time, into an AS path anchored at the
// vantage AS, which is known platform metadata (each record carries it):
// a failed trace is rule 2, a trace with no mappable hop rule 1, and a
// silent or unmappable run of hops before a different AS, or at the
// trace's end, rule 3. The first trace that fails gives the reason, so a
// traceroute error eliminates the test even when the other traces agree.
// If the traces that pass give more than one distinct path, the test is
// inconclusive (rule 4).
//
// The returned path lies in the Inferrer's storage and is valid until
// its next call. A test's traces mostly probe the same router-level
// path, so a hop at the address an earlier trace of the test had at that
// position reuses its mapping instead of looking it up again.
func (in *Inferrer) Consensus(traces []Trace, snap ipasmap.Snapshot, vantage topology.ASN) ([]topology.ASN, FailReason) {
	if len(traces) == 0 {
		return nil, ErrTraceFailed
	}
	in.hops = in.hops[:0]
	var why FailReason
	if in.path, why = in.infer(&traces[0], snap, vantage, in.path[:0]); why != OK {
		return nil, why
	}
	for i := 1; i < len(traces); i++ {
		if in.other, why = in.infer(&traces[i], snap, vantage, in.other[:0]); why != OK {
			return nil, why
		}
		if !slices.Equal(in.path, in.other) {
			return nil, ErrDisagree
		}
	}
	return in.path, OK
}

// infer appends one trace's AS path to path in a single pass over its
// hops. Silent and unmappable hops are both unknown: a run of them must
// end at a hop of the AS before it, or it hides an AS boundary; a run at
// the end hides the destination, so the path's end is unverifiable. Both
// are rule 3, unless no hop maps at all (rule 1).
func (in *Inferrer) infer(tr *Trace, snap ipasmap.Snapshot, vantage topology.ASN, path []topology.ASN) ([]topology.ASN, FailReason) {
	if tr.Err {
		return path, ErrTraceFailed
	}
	path = append(path, vantage)
	last, unknown, mapped := vantage, false, false
	for i, h := range tr.Hops {
		asn, ok := in.lookup(i, h, snap)
		if !ok {
			unknown = true
			continue
		}
		mapped = true
		if asn != last {
			if unknown {
				return path, ErrSilentBoundary
			}
			path = append(path, asn)
			last = asn
		}
		unknown = false
	}
	switch {
	case !mapped:
		return path, ErrNoMapping
	case unknown:
		return path, ErrSilentBoundary
	}
	return path, OK
}

// lookup maps the i-th hop of a trace through snap, reusing the mapping
// of an earlier trace's i-th hop in this test when it had the same
// address.
func (in *Inferrer) lookup(i int, h Hop, snap ipasmap.Snapshot) (topology.ASN, bool) {
	if !h.Responded {
		return 0, false
	}
	if i < len(in.hops) && in.hops[i].set && in.hops[i].ip == h.IP {
		return in.hops[i].asn, in.hops[i].known
	}
	asn, ok := snap.Lookup(h.IP)
	for len(in.hops) <= i {
		in.hops = append(in.hops, mappedHop{})
	}
	in.hops[i] = mappedHop{ip: h.IP, asn: asn, known: ok, set: true}
	return asn, ok
}
