package traceroute

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"churntomo/internal/ipasmap"
	"churntomo/internal/netaddr"
	"churntomo/internal/topology"
)

// Infer is the reference inference of one trace: it maps every hop
// through the database at time at into a fresh slot list, then walks the
// slots. Inferrer.Consensus must agree with InferConsensus over it.
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

// InferConsensus is the reference consensus: Infer on each trace, the
// first failure in trace order reported, and rule 4 when two traces that
// pass disagree.
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
		if !slices.Equal(consensus, path) {
			return nil, ErrDisagree
		}
	}
	return consensus, OK
}

// checkConsensus runs Inferrer.Consensus on traces and fails unless it
// returns exactly what the reference does, the path only when it is OK.
// It returns the reference's answer.
func checkConsensus(t *testing.T, in *Inferrer, traces []Trace, db *ipasmap.DB, at time.Time, vantage topology.ASN) ([]topology.ASN, FailReason) {
	t.Helper()
	want, wantWhy := InferConsensus(traces, db, at, vantage)
	got, why := in.Consensus(traces, db.At(at), vantage)
	if why != wantWhy || why == OK && !slices.Equal(got, want) {
		t.Fatalf("Consensus = %v, %v; the reference gives %v, %v (traces %+v)", got, why, want, wantWhy, traces)
	}
	return want, wantWhy
}

// TestConsensusMatchesReference is the differential test of the scratch
// inference: random trace sets over real expansions, with hops silenced,
// moved into other ASes' or unmapped address space, traces failed or cut
// short, mapped through a database with holes and drift at times across
// its snapshots, must give the reference's path and reason. One Inferrer
// serves every set, so a stale path or hop mapping would show.
func TestConsensusMatchesReference(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 3, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 1, 10, 0, 0, 0, 0, time.UTC)
	db, err := ipasmap.Build(g, ipasmap.BuildConfig{Seed: 3, Start: start, End: start.AddDate(0, 4, 0), HoleProb: 0.2, DriftProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tree := routingTree(g, 120)
	rng := rand.New(rand.NewPCG(5, 0x696e666572)) // "infer"
	var in Inferrer
	var e Expansion
	reasons := map[FailReason]int{}
	for range 4000 {
		src := rng.Int32N(int32(len(g.ASes)))
		path, ok := tree.path(src, 120)
		if !ok || len(path) < 2 {
			continue
		}
		Expand(g, path, serverIPOf(g, 120), rng, &e)
		cfg := Config{NonResponseProb: 0.05 * rng.Float64(), FailProb: 0.05 * rng.Float64()}
		traces := make([]Trace, rng.IntN(4))
		for i := range traces {
			Probe(&e, cfg, rng, &traces[i])
			for j := range traces[i].Hops {
				switch r := rng.IntN(60); {
				case r == 0:
					traces[i].Hops[j] = Hop{IP: g.RouterIP(rng.Int32N(int32(len(g.ASes))), 0), Responded: true}
				case r == 1:
					traces[i].Hops[j] = Hop{IP: netaddr.MakeIP(240, 0, 0, byte(j)), Responded: true} // unmapped
				}
			}
			if rng.IntN(20) == 0 {
				traces[i].Hops = traces[i].Hops[:rng.IntN(len(traces[i].Hops)+1)]
			}
			if rng.IntN(40) == 0 {
				traces[i].Hops = traces[i].Hops[:0]
			}
		}
		when := start.Add(time.Duration(rng.Int64N(int64(150*24*time.Hour))) - 20*24*time.Hour)
		_, why := checkConsensus(t, &in, traces, db, when, g.ASes[src].ASN)
		reasons[why]++
	}
	t.Logf("reasons: %v", reasons)
	for _, why := range []FailReason{OK, ErrTraceFailed, ErrNoMapping, ErrSilentBoundary, ErrDisagree} {
		if reasons[why] < 20 {
			t.Errorf("only %d trace sets end in %v; the generator misses a rule", reasons[why], why)
		}
	}
}

// inferOne checks the inference of a single trace, a consensus of one,
// against the reference and returns the reference's answer.
func inferOne(t *testing.T, tr Trace, db *ipasmap.DB, at time.Time, vantage topology.ASN) ([]topology.ASN, FailReason) {
	t.Helper()
	want, wantWhy := Infer(tr, db, at, vantage)
	got, why := new(Inferrer).Consensus([]Trace{tr}, db.At(at), vantage)
	if why != wantWhy || why == OK && !slices.Equal(got, want) {
		t.Fatalf("Consensus of one trace = %v, %v; Infer gives %v, %v", got, why, want, wantWhy)
	}
	return want, wantWhy
}
