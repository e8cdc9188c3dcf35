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

var at = time.Date(2016, 6, 15, 0, 0, 0, 0, time.UTC)

func fixture(t testing.TB) (*topology.Graph, *ipasmap.DB, []int32) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 1, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := ipasmap.Perfect(g, at.AddDate(0, -1, 0))
	// Build a real routed path.
	tree := routingTree(g, 150)
	path, ok := tree.path(20, 150)
	if !ok || len(path) < 3 {
		t.Fatalf("fixture path unusable: %v", path)
	}
	return g, db, path
}

// Minimal local router to avoid importing internal/routing here: walk up to
// a tier-1 then down is unnecessary — use provider chains via BFS over all
// edges (any simple path works for expansion tests).
type simpleTree struct {
	parent []int32
}

func routingTree(g *topology.Graph, dst int32) simpleTree {
	parent := make([]int32, len(g.ASes))
	for i := range parent {
		parent[i] = -1
	}
	parent[dst] = dst
	queue := []int32{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors[u] {
			if parent[nb.Idx] == -1 {
				parent[nb.Idx] = u
				queue = append(queue, nb.Idx)
			}
		}
	}
	return simpleTree{parent}
}

func (t simpleTree) path(src, dst int32) ([]int32, bool) {
	if t.parent[src] == -1 {
		return nil, false
	}
	out := []int32{src}
	for at := src; at != dst; {
		at = t.parent[at]
		out = append(out, at)
		if len(out) > 64 {
			return nil, false
		}
	}
	return out, true
}

func serverIPOf(g *topology.Graph, idx int32) netaddr.IP { return g.HostIP(idx, 1) }

func TestExpandStructure(t *testing.T) {
	g, _, path := fixture(t)
	rng := rand.New(rand.NewPCG(1, 1))
	server := serverIPOf(g, path[len(path)-1])
	var e Expansion
	Expand(g, path, server, rng, &e)

	if len(e.ASStart) != len(path) {
		t.Fatalf("ASStart has %d entries for %d ASes", len(e.ASStart), len(path))
	}
	if e.ASStart[0] != 0 {
		t.Errorf("first AS starts at hop %d", e.ASStart[0])
	}
	if e.Hops[len(e.Hops)-1].IP != server {
		t.Errorf("last hop %v is not the server %v", e.Hops[len(e.Hops)-1].IP, server)
	}
	// Hops per AS are contiguous and match the AS path order.
	for i, asIdx := range path {
		startHop := e.ASStart[i]
		endHop := len(e.Hops)
		if i+1 < len(path) {
			endHop = e.ASStart[i+1]
		}
		if startHop >= endHop {
			t.Fatalf("AS %d has no hops", i)
		}
		for h := startHop; h < endHop; h++ {
			if e.Hops[h].ASIdx != asIdx {
				t.Fatalf("hop %d belongs to AS %d, expected %d", h, e.Hops[h].ASIdx, asIdx)
			}
		}
	}
	if e.ServerDist() != len(e.Hops) {
		t.Errorf("ServerDist = %d, want %d", e.ServerDist(), len(e.Hops))
	}
	for i := range path {
		d := e.DistOfAS(i)
		if d < 1 || d > e.ServerDist() {
			t.Errorf("DistOfAS(%d) = %d out of range", i, d)
		}
		if i > 0 && d <= e.DistOfAS(i-1) {
			t.Errorf("distances not increasing: DistOfAS(%d)=%d <= DistOfAS(%d)", i, d, i-1)
		}
	}
}

func TestProbeCleanInfer(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(2, 2))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	var tr Trace
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rng, &tr)
	got, why := inferOne(t, tr, db, at, g.ASes[path[0]].ASN)
	if why != OK {
		t.Fatalf("Infer failed: %v", why)
	}
	want := make([]topology.ASN, len(path))
	for i, idx := range path {
		want[i] = g.ASes[idx].ASN
	}
	if !slices.Equal(got, want) {
		t.Errorf("inferred %v, want %v", got, want)
	}
}

func TestInferRule2TraceError(t *testing.T) {
	_, db, _ := fixture(t)
	if _, why := inferOne(t, Trace{Err: true}, db, at, 1); why != ErrTraceFailed {
		t.Errorf("got %v, want ErrTraceFailed", why)
	}
}

func TestInferRule1NoMapping(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(3, 3))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	var tr Trace
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rng, &tr)
	// Rewrite all hops to unallocated space.
	for i := range tr.Hops {
		tr.Hops[i].IP = netaddr.MustParseIP("5.5.5.5")
	}
	if _, why := inferOne(t, tr, db, at, g.ASes[path[0]].ASN); why != ErrNoMapping {
		t.Errorf("got %v, want ErrNoMapping", why)
	}
}

func TestInferRule3SilentBoundary(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(4, 4))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	var tr Trace
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rng, &tr)
	// Silence every hop of the second AS: the run between AS1 and AS3
	// becomes ambiguous.
	startHop, endHop := e.ASStart[1], e.ASStart[2]
	for i := startHop; i < endHop; i++ {
		tr.Hops[i] = Hop{}
	}
	if _, why := inferOne(t, tr, db, at, g.ASes[path[0]].ASN); why != ErrSilentBoundary {
		t.Errorf("got %v, want ErrSilentBoundary", why)
	}
}

func TestInferSilentWithinASAbsorbed(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(5, 5))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	// Find an AS with >= 3 hops and silence a middle one: the silent hop is
	// flanked by mapped hops of the same AS, so inference can absorb it.
	// (Silencing an AS's edge hop is a genuine rule-3 ambiguity and must
	// fail — covered by TestInferRule3SilentBoundary.)
	target := -1
	for i := range path {
		end := len(e.Hops)
		if i+1 < len(path) {
			end = e.ASStart[i+1]
		}
		if end-e.ASStart[i] >= 3 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Skip("no 3-hop AS on this path")
	}
	var tr Trace
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rng, &tr)
	tr.Hops[e.ASStart[target]+1] = Hop{} // silence an interior router
	got, why := inferOne(t, tr, db, at, g.ASes[path[0]].ASN)
	if why != OK {
		t.Fatalf("interior silent hop not absorbed: %v", why)
	}
	if len(got) != len(path) {
		t.Errorf("inferred %d ASes, want %d", len(got), len(path))
	}
}

func TestInferTrailingSilentFails(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(6, 6))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	var tr Trace
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rng, &tr)
	// Silence the final hops spanning the last AS boundary.
	for i := e.ASStart[len(path)-1]; i < len(tr.Hops); i++ {
		tr.Hops[i] = Hop{}
	}
	if _, why := inferOne(t, tr, db, at, g.ASes[path[0]].ASN); why != ErrSilentBoundary {
		t.Errorf("got %v, want ErrSilentBoundary for unverifiable tail", why)
	}
}

func TestInferConsensusRule4(t *testing.T) {
	g, db, path := fixture(t)
	rng := rand.New(rand.NewPCG(7, 7))
	server := serverIPOf(g, path[len(path)-1])
	var e Expansion
	Expand(g, path, server, rng, &e)
	clean := Config{NonResponseProb: 1e-9, FailProb: 1e-9}
	var t1, t2, t3 Trace
	Probe(&e, clean, rng, &t1)
	Probe(&e, clean, rng, &t2)
	Probe(&e, clean, rng, &t3)

	if _, why := checkConsensus(t, new(Inferrer), []Trace{t1, t2, t3}, db, at, g.ASes[path[0]].ASN); why != OK {
		t.Fatalf("clean consensus failed: %v", why)
	}

	// Disagreement: reroute the third trace through a different AS by
	// remapping one hop's address into another AS's space.
	var otherIdx int32
	for i := range g.ASes {
		if !containsIdx(path, int32(i)) {
			otherIdx = int32(i)
			break
		}
	}
	t3.Hops[e.ASStart[1]] = Hop{IP: g.RouterIP(otherIdx, 0), Responded: true}
	if _, why := checkConsensus(t, new(Inferrer), []Trace{t1, t2, t3}, db, at, g.ASes[path[0]].ASN); why != ErrDisagree {
		t.Errorf("got %v, want ErrDisagree", why)
	}

	// A failed member trace poisons the record (rule 2 at record level).
	if _, why := checkConsensus(t, new(Inferrer), []Trace{t1, {Err: true}}, db, at, g.ASes[path[0]].ASN); why != ErrTraceFailed {
		t.Errorf("got %v, want ErrTraceFailed", why)
	}
	if _, why := checkConsensus(t, new(Inferrer), nil, db, at, g.ASes[path[0]].ASN); why != ErrTraceFailed {
		t.Errorf("empty trace set: got %v", why)
	}
}

func TestProbeFailure(t *testing.T) {
	g, _, path := fixture(t)
	rng := rand.New(rand.NewPCG(8, 8))
	var e Expansion
	Expand(g, path, serverIPOf(g, path[len(path)-1]), rng, &e)
	fails := 0
	var tr Trace
	for i := 0; i < 1000; i++ {
		if Probe(&e, Config{FailProb: 0.25, NonResponseProb: 1e-9}, rng, &tr); tr.Err {
			fails++
		}
	}
	if fails < 150 || fails > 400 {
		t.Errorf("fail rate %d/1000 far from configured 25%%", fails)
	}
}

// TestRecycledStorageMatchesFresh expands and probes a short path into
// the storage a longer path's expansion and trace left, and checks the
// result against a fresh run from the same RNG streams: no hop, AS start
// or response of the longer run may show through, and a failed probe
// keeps no hops.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	g, _, path := fixture(t)
	server := serverIPOf(g, path[len(path)-1])
	short := path[len(path)-2:]
	cfg := Config{NonResponseProb: 0.4, FailProb: 1e-9}
	var e Expansion
	var tr Trace
	Expand(g, path, server, rand.New(rand.NewPCG(9, 9)), &e)
	Probe(&e, Config{NonResponseProb: 1e-9, FailProb: 1e-9}, rand.New(rand.NewPCG(9, 9)), &tr)
	long := len(e.Hops)

	var fe Expansion
	var ftr Trace
	Expand(g, short, server, rand.New(rand.NewPCG(10, 10)), &fe)
	Probe(&fe, cfg, rand.New(rand.NewPCG(14, 14)), &ftr)
	Expand(g, short, server, rand.New(rand.NewPCG(10, 10)), &e)
	Probe(&e, cfg, rand.New(rand.NewPCG(14, 14)), &tr)
	if len(fe.Hops) >= long || ftr.Err {
		t.Fatalf("the short path expands to %d hops (the long one %d), failed %v", len(fe.Hops), long, ftr.Err)
	}
	silent := false
	for _, h := range ftr.Hops {
		silent = silent || !h.Responded
	}
	if !silent {
		t.Fatal("no hop of the short trace is silent, so a stale response could not show")
	}
	if !slices.Equal(e.Hops, fe.Hops) || !slices.Equal(e.ASStart, fe.ASStart) {
		t.Fatalf("recycled expansion %+v differs from a fresh one %+v", e, fe)
	}
	if tr.Err != ftr.Err || !slices.Equal(tr.Hops, ftr.Hops) {
		t.Fatalf("recycled trace %+v differs from a fresh one %+v", tr, ftr)
	}

	Probe(&e, Config{FailProb: 1}, rand.New(rand.NewPCG(12, 12)), &tr)
	if !tr.Err || len(tr.Hops) != 0 {
		t.Fatalf("a failed probe into recycled storage kept %d hops, Err %v", len(tr.Hops), tr.Err)
	}
}

func TestFailReasonStrings(t *testing.T) {
	for _, r := range []FailReason{OK, ErrTraceFailed, ErrNoMapping, ErrSilentBoundary, ErrDisagree} {
		if r.String() == "" {
			t.Errorf("empty string for %d", r)
		}
	}
	if FailReason(99).String() == "" {
		t.Error("unknown reason renders empty")
	}
}

func containsIdx(path []int32, x int32) bool {
	for _, p := range path {
		if p == x {
			return true
		}
	}
	return false
}
