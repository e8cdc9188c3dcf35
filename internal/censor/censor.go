package censor

import (
	"sort"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
)

// Behavior captures the packet-level fingerprint of a censor's injector.
type Behavior struct {
	// InitTTL is the IP TTL the middlebox uses for injected packets.
	// Boxes sending at 255 are trivially fingerprintable; boxes mimicking
	// the server's 64 are only caught when hop distances differ.
	InitTTL uint8
	// SeqSkew: RST/data injections guess the sequence number imperfectly,
	// producing overlaps or gaps (the SEQ anomaly signature).
	SeqSkew bool
	// InPath: the box can drop the real server's response when it injects
	// a blockpage (an in-path filter rather than an on-path injector).
	InPath bool
	// MimicTTL: sequence-space injections craft the TTL to imitate the real
	// server's arrival TTL; boxes without it are also TTL-fingerprintable.
	MimicTTL bool
	// KillsConn: blockpage boxes that follow the page with a RST burst.
	KillsConn bool
	// Blockpage selects the censor's blockpage template.
	Blockpage int
}

// Behavior fields are per-censor constants rather than per-measurement coin
// flips: a deployed middlebox's packet fingerprint is fixed firmware
// behaviour. Keeping it deterministic matters for the tomography — a censor
// whose detectability flip-flopped between measurements of the same path
// would make its own CNFs unsatisfiable.

// Epoch is one interval of constant policy.
type Epoch struct {
	Start      time.Time // zero time = since forever
	Techniques anomaly.Set
	Categories webcat.Set
}

// Policy is one censoring AS's full configuration.
type Policy struct {
	AS       topology.ASN
	Country  string
	Behavior Behavior

	// epochs are sorted by start time; the first entry has the zero Start.
	epochs []Epoch
}

// NewPolicy builds a policy with an initial epoch.
func NewPolicy(as topology.ASN, country string, b Behavior, techniques anomaly.Set, cats webcat.Set) *Policy {
	return &Policy{
		AS:       as,
		Country:  country,
		Behavior: b,
		epochs:   []Epoch{{Techniques: techniques, Categories: cats}},
	}
}

// AddChange schedules a policy change at t. Changes must be added in
// chronological order.
func (p *Policy) AddChange(t time.Time, techniques anomaly.Set, cats webcat.Set) {
	p.epochs = append(p.epochs, Epoch{Start: t, Techniques: techniques, Categories: cats})
}

// EpochAt returns the policy epoch in force at t.
func (p *Policy) EpochAt(t time.Time) Epoch {
	i := sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i].Start.After(t) })
	if i == 0 {
		return p.epochs[0]
	}
	return p.epochs[i-1]
}

// Registry holds every censor in a scenario. It doubles as the experiment's
// ground truth: the tomography never sees it, but validation compares
// identified censors against it.
type Registry struct {
	policies map[topology.ASN]*Policy
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{policies: make(map[topology.ASN]*Policy)}
}

// Add registers a policy, replacing any previous policy for the same AS.
func (r *Registry) Add(p *Policy) { r.policies[p.AS] = p }

// Policy returns the policy for an AS.
func (r *Registry) Policy(as topology.ASN) (*Policy, bool) {
	p, ok := r.policies[as]
	return p, ok
}

// Len returns the number of censoring ASes.
func (r *Registry) Len() int { return len(r.policies) }

// ASNs lists censoring ASes in ascending order.
func (r *Registry) ASNs() []topology.ASN {
	out := make([]topology.ASN, 0, len(r.policies))
	for a := range r.policies {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Active describes one censor found on a measurement's path, with the
// techniques it will fire for the given category and time.
type Active struct {
	ASN        topology.ASN
	PathIndex  int // position in the AS path (0 = vantage AS)
	Techniques anomaly.Set
	Policy     *Policy
}

// ActiveOn returns the censors on path that will act on category cat at
// time t, in path order. The returned Techniques are already filtered to
// the firing set.
func (r *Registry) ActiveOn(path []topology.ASN, cat webcat.Category, t time.Time) []Active {
	var out []Active
	for i, as := range path {
		p, ok := r.policies[as]
		if !ok {
			continue
		}
		e := p.EpochAt(t)
		if !e.Categories.Has(cat) || e.Techniques == 0 {
			continue
		}
		out = append(out, Active{ASN: as, PathIndex: i, Techniques: e.Techniques, Policy: p})
	}
	return out
}
