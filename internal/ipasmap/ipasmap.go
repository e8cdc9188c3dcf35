package ipasmap

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"churntomo/internal/netaddr"
	"churntomo/internal/topology"
)

// DB is a time-versioned IP-to-AS mapping database.
type DB struct {
	snapshots []snapshot
}

type snapshot struct {
	start time.Time
	trie  netaddr.Trie[topology.ASN]
}

// BuildConfig parameterizes database construction.
type BuildConfig struct {
	Seed       uint64
	Start, End time.Time

	// HoleProb is the per-(prefix, snapshot) probability that the prefix is
	// absent from that month's snapshot. Default 0.015.
	HoleProb float64
	// DriftProb is the per-(prefix, snapshot) probability that the prefix
	// maps to a neighboring AS instead (e.g. a customer announcement
	// attributed to the provider). Default 0.002.
	DriftProb float64
}

func (c *BuildConfig) fillDefaults() {
	if c.HoleProb == 0 {
		c.HoleProb = 0.005
	}
	if c.DriftProb == 0 {
		c.DriftProb = 0.0015
	}
}

// pcgStreamIP2AS is the snapshot-drift RNG stream word ("ip2as" in
// ASCII); stream words are module-unique, enforced by churnvet.
const pcgStreamIP2AS = 0x6970326173 // "ip2as"

// Build derives monthly snapshots from the topology's prefix assignments.
// Deterministic for identical inputs.
func Build(g *topology.Graph, cfg BuildConfig) (*DB, error) {
	cfg.fillDefaults()
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("ipasmap: start %v not before end %v", cfg.Start, cfg.End)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, pcgStreamIP2AS))
	db := &DB{}
	for at := monthStart(cfg.Start); at.Before(cfg.End); at = at.AddDate(0, 1, 0) {
		var snap snapshot
		snap.start = at
		for i := range g.ASes {
			as := &g.ASes[i]
			owner := as.ASN
			for _, p := range as.Prefixes {
				switch r := rng.Float64(); {
				case r < cfg.HoleProb:
					continue // hole: prefix missing this month
				case r < cfg.HoleProb+cfg.DriftProb:
					snap.trie.Insert(p, neighborASN(g, int32(i), rng))
				default:
					snap.trie.Insert(p, owner)
				}
			}
		}
		db.snapshots = append(db.snapshots, snap)
	}
	if len(db.snapshots) == 0 {
		return nil, fmt.Errorf("ipasmap: window too short for any snapshot")
	}
	return db, nil
}

// neighborASN picks an adjacent AS to misattribute a prefix to, falling
// back to the owner itself for isolated nodes.
func neighborASN(g *topology.Graph, idx int32, rng *rand.Rand) topology.ASN {
	nbs := g.Neighbors[idx]
	if len(nbs) == 0 {
		return g.ASes[idx].ASN
	}
	return g.ASes[nbs[rng.IntN(len(nbs))].Idx].ASN
}

func monthStart(t time.Time) time.Time {
	t = t.UTC()
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
}

// Lookup resolves ip using the snapshot in force at time at.
func (db *DB) Lookup(ip netaddr.IP, at time.Time) (topology.ASN, bool) {
	return db.At(at).Lookup(ip)
}

// Snapshot is the mapping one month's snapshot holds. A caller that maps
// many addresses at one time picks the snapshot once with DB.At.
type Snapshot struct {
	trie *netaddr.Trie[topology.ASN]
}

// At returns the snapshot in force at time at, the one Lookup(ip, at)
// reads: the latest that starts at or before at, or the first for a time
// before every snapshot.
func (db *DB) At(at time.Time) Snapshot {
	i := sort.Search(len(db.snapshots), func(i int) bool { return db.snapshots[i].start.After(at) })
	if i == 0 {
		i = 1 // clamp queries before the first snapshot onto it
	}
	return Snapshot{&db.snapshots[i-1].trie}
}

// Lookup resolves ip in the snapshot.
func (s Snapshot) Lookup(ip netaddr.IP) (topology.ASN, bool) { return s.trie.Lookup(ip) }

// Perfect builds a single-snapshot database with no holes or drift —
// useful for tests that want mapping noise out of the picture.
func Perfect(g *topology.Graph, at time.Time) *DB {
	var snap snapshot
	snap.start = at
	for i := range g.ASes {
		for _, p := range g.ASes[i].Prefixes {
			snap.trie.Insert(p, g.ASes[i].ASN)
		}
	}
	return &DB{snapshots: []snapshot{snap}}
}
