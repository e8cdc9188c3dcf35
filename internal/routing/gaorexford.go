package routing

import (
	"sync"

	"churntomo/internal/topology"
)

// Unreachable marks a node with no route in a Tree.
const Unreachable int32 = -1

// Tree holds, for one destination and one routing epoch, the chosen next
// hop of every AS (by index). The destination's entry points to itself.
type Tree []int32

// Routes is one computed routing tree together with what the View's reuse
// rules read besides the next hops: the class and length of every AS's
// chosen route.
type Routes struct {
	Tree  Tree
	class []uint8 // route class, phaseCustomer..phaseProvider; phaseNone when unrouted
	dist  []int32 // AS hops to the destination; 0 when unrouted
}

// sized returns r when it holds n routes, and new storage for n routes
// otherwise.
func (r Routes) sized(n int) Routes {
	if len(r.Tree) != n || len(r.class) != n || len(r.dist) != n {
		return Routes{Tree: make(Tree, n), class: make([]uint8, n), dist: make([]int32, n)}
	}
	return r
}

// Route classes, in Gao–Rexford preference order: routes learned from
// customers beat routes learned from peers beat routes learned from
// providers, regardless of path length. ComputeTree settles them in this
// order, one phase each.
const (
	phaseNone uint8 = iota
	phaseCustomer
	phasePeer
	phaseProvider
)

// tiebreak hashes a (chooser, nexthop) pair with the chooser's policy salt.
// It stands in for the long tail of the BGP decision process (MED, IGP
// cost, router IDs): deterministic for a fixed salt, and re-rolled by policy
// shift events to model intra-policy route changes. v fills the low 32 bits
// of a bijective mix, so for a fixed chooser and salt no two next hops tie:
// every AS has exactly one best route.
func tiebreak(u, v int32, salt uint64) uint64 {
	x := salt ^ uint64(uint32(u))<<32 ^ uint64(uint32(v))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// treeScratch holds the per-computation working state of a tree
// computation that does not outlive it: a View keeps one for the trees
// it computes, and ComputeTree recycles them through treeScratchPool, so
// repeated computations allocate nothing beyond their Routes.
type treeScratch struct {
	frontier, claimed []int32
	buckets           [][]int32
}

var treeScratchPool = sync.Pool{New: func() any { return &treeScratch{} }}

// grab sizes the scratch for n nodes and clears it.
func (s *treeScratch) grab(n int) {
	if cap(s.buckets) < n+1 {
		s.buckets = make([][]int32, n+1)
	}
	s.buckets = s.buckets[:n+1]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.frontier = s.frontier[:0]
	s.claimed = s.claimed[:0]
}

// ComputeTree computes the Gao–Rexford routing tree toward dst (an AS
// index) into r's storage and returns it. down marks failed links by link
// ID; an AS's tie-break salt is salt[as] ^ psalt, where psalt re-rolls
// every tie-break for one forwarding plane (0 on the canonical plane).
// The decision process per AS: prefer customer-learned, then
// peer-learned, then provider-learned routes; among those, shortest AS
// path; ties broken by the salted hash. Like append, it reuses r's
// storage when r holds one route per AS of g and allocates otherwise, so
// Routes{} asks for fresh storage; every route of r is overwritten.
//
// The three-phase BFS of compute, which ComputeTree runs with scratch
// from a pool, is the standard simulation algorithm for this model:
// phase 1 floods the destination's announcement up provider chains
// (producing customer routes), phase 2 crosses single peer edges, and
// phase 3 floods everything down customer chains (producing provider
// routes). The result is valley-free by construction.
func ComputeTree(g *topology.Graph, dst int32, down []bool, salt []uint64, psalt uint64, r Routes) Routes {
	sc := treeScratchPool.Get().(*treeScratch)
	r = sc.compute(g, dst, down, salt, psalt, r)
	treeScratchPool.Put(sc)
	return r
}

// compute is ComputeTree with sc as its scratch.
func (sc *treeScratch) compute(g *topology.Graph, dst int32, down []bool, salt []uint64, psalt uint64, r Routes) Routes {
	n := len(g.ASes)
	r = r.sized(n)
	next, dist, phase := r.Tree, r.dist, r.class
	for i := range next {
		next[i] = Unreachable
	}
	clear(dist)
	clear(phase)
	sc.grab(n)

	// Phase 1: customer routes, level-synchronous BFS from dst along
	// customer->provider edges.
	next[dst], dist[dst], phase[dst] = dst, 0, phaseCustomer
	frontier := append(sc.frontier, dst)
	claimed := sc.claimed // providers claimed in the current level
	for len(frontier) > 0 {
		claimed = claimed[:0]
		for _, u := range frontier {
			for _, nb := range g.Neighbors[u] {
				if nb.Rel != topology.RelProvider || down[nb.Link] {
					continue
				}
				p := nb.Idx
				if phase[p] == phaseCustomer {
					continue // already routed (this or an earlier level)
				}
				if next[p] == Unreachable {
					claimed = append(claimed, p)
					next[p] = u
				} else if s := salt[p] ^ psalt; tiebreak(p, u, s) < tiebreak(p, next[p], s) {
					next[p] = u
				}
			}
		}
		for _, p := range claimed {
			phase[p] = phaseCustomer
			dist[p] = dist[next[p]] + 1
		}
		frontier = append(frontier[:0], claimed...)
	}

	// Phase 2: peer routes. An AS without a customer route may cross one
	// peer edge into an AS that has one.
	for u := int32(0); u < int32(n); u++ {
		if phase[u] != phaseNone {
			continue
		}
		best := Unreachable
		var bestDist int32
		for _, nb := range g.Neighbors[u] {
			if nb.Rel != topology.RelPeer || down[nb.Link] || phase[nb.Idx] != phaseCustomer {
				continue
			}
			d := dist[nb.Idx] + 1
			switch {
			case best == Unreachable, d < bestDist:
				best, bestDist = nb.Idx, d
			case d == bestDist && tiebreak(u, nb.Idx, salt[u]^psalt) < tiebreak(u, best, salt[u]^psalt):
				best = nb.Idx
			}
		}
		if best != Unreachable {
			phase[u], dist[u], next[u] = phasePeer, bestDist, best
		}
	}

	// Phase 3: provider routes, flooding every routed AS's announcement
	// down provider->customer edges in increasing path-length order.
	maxDist := int32(0)
	buckets := sc.buckets
	for u := int32(0); u < int32(n); u++ {
		if phase[u] != phaseNone {
			buckets[dist[u]] = append(buckets[dist[u]], u)
			if dist[u] > maxDist {
				maxDist = dist[u]
			}
		}
	}
	for d := int32(0); d <= maxDist; d++ {
		claimed = claimed[:0]
		for _, v := range buckets[d] {
			if dist[v] != d {
				continue // superseded by a shorter assignment
			}
			for _, nb := range g.Neighbors[v] {
				if nb.Rel != topology.RelCustomer || down[nb.Link] {
					continue
				}
				u := nb.Idx
				if phase[u] != phaseNone {
					continue
				}
				if next[u] == Unreachable {
					claimed = append(claimed, u)
					next[u] = v
				} else if s := salt[u] ^ psalt; dist[next[u]] == d && tiebreak(u, v, s) < tiebreak(u, next[u], s) {
					next[u] = v
				}
			}
		}
		for _, u := range claimed {
			phase[u] = phaseProvider
			dist[u] = d + 1
			if int(d+1) < len(buckets) {
				buckets[d+1] = append(buckets[d+1], u)
				if d+1 > maxDist {
					maxDist = d + 1
				}
			}
		}
	}
	sc.frontier, sc.claimed, sc.buckets = frontier[:0], claimed, buckets
	return r
}

// AppendPath appends the AS-index path from src to dst out of a tree to
// buf and returns the extended slice, which then ends with the path from
// src to dst. When src has no route it returns buf unchanged and false.
func (t Tree) AppendPath(buf []int32, src, dst int32) ([]int32, bool) {
	const maxLen = 64 // far above any valley-free path length; loop guard
	if t[src] == Unreachable {
		return buf, false
	}
	path := buf
	at := src
	for range maxLen {
		path = append(path, at)
		if at == dst {
			return path, true
		}
		at = t[at]
		if at == Unreachable {
			return buf, false
		}
	}
	return buf, false
}
