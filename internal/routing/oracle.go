package routing

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"churntomo/internal/topology"
)

// Oracle is the simulator's data plane: traceroutes, DNS queries and HTTP
// connections all route through it. It holds the graph, the churn
// timeline and two work counters; path queries go through Views, each
// owned by one goroutine at a time, so the Oracle itself keeps no trees
// and no per-epoch state. It is safe for concurrent use.
type Oracle struct {
	G  *topology.Graph
	TL *Timeline

	viewTrees int          // trees one View holds before it drops them all
	queries   atomic.Int64 // path queries, over every View
	computes  atomic.Int64 // trees computed, over every View
}

// NewOracle wraps g and tl. cacheTrees bounds the trees one View holds: a
// View that reaches it drops every tree and starts over, reusing their
// storage, so the bound also caps a View's tree memory. A View serves one
// measurement worker's days in turn and drops its trees between them
// (see View.Reset), so the bound applies per day. Zero or negative
// selects 4096, over twice what one default-scale measurement day holds
// (a negative bound would drop on every computation, so it is clamped
// rather than honored).
func NewOracle(g *topology.Graph, tl *Timeline, cacheTrees int) *Oracle {
	if cacheTrees <= 0 {
		cacheTrees = 4096
	}
	return &Oracle{G: g, TL: tl, viewTrees: cacheTrees}
}

// planeSalt is the per-plane tie-break perturbation mixed into every AS's
// policy salt: plane 0 is zero (the canonical trees, byte-identical to a
// plane-unaware oracle), and each higher plane deterministically re-rolls
// the tie-breaks, yielding another equally-valid Gao–Rexford tree — the
// model of an ECMP/load-balanced forwarding plane where equally-preferred
// routes are hashed per flow.
func planeSalt(plane int32) uint64 {
	if plane == 0 {
		return 0
	}
	return splitmix(0x65636d70 ^ uint64(uint32(plane))) // "ecmp"
}

// TreeAt computes the routing tree toward dst (AS index) during epoch ep
// on the canonical forwarding plane. It answers through a fresh View, so
// every call computes; repeated queries belong on one View.
func (o *Oracle) TreeAt(dst, ep int32) Tree {
	return o.View().TreeAtPlane(dst, ep, 0)
}

// AppendASNs appends the ASNs of an AS-index path to buf and returns the
// extended slice.
func (o *Oracle) AppendASNs(buf []topology.ASN, idxPath []int32) []topology.ASN {
	for _, idx := range idxPath {
		buf = append(buf, o.G.ASes[idx].ASN)
	}
	return buf
}

// Stats reports the work done through every View so far: path queries,
// and routing trees built. treeComputes counts every tree a View builds,
// fresh from ComputeTree or repaired from a tree it holds.
func (o *Oracle) Stats() (queries, treeComputes int) {
	return int(o.queries.Load()), int(o.computes.Load())
}

// View answers path queries for one goroutine at a time; the measurement
// engine gives each worker one, which serves that worker's days in turn
// and is Reset between them. It keeps, per (destination, plane), runs of
// consecutive epochs that share one computed tree, and grows a run across
// an epoch boundary when that boundary's churn provably cannot change the
// tree (see touches), building a new tree only when it can. A new tree is
// repaired from the nearest run's tree when few flips lie between (see
// repair), computed afresh otherwise. Trees are pure functions of
// (destination, epoch, plane), so what a View has seen never changes an
// answer, only how much it computes.
//
// Every tree lives in the View's tree arena: trees[:held] back the runs,
// one each, and dropping the trees (on Reset, or on reaching the Oracle's
// bound) rewinds held and empties every key's run list in place, so the
// next trees overwrite the same storage in the same order. A returned
// Tree is therefore valid only until the View next drops its trees.
//
// A View is not safe for concurrent use.
type View struct {
	o        *Oracle
	keys     map[runKey]int // each key's index in runs, in first-query order
	runs     [][]run        // by key: disjoint, sorted by first epoch
	held     int            // runs over every key
	trees    []Routes       // tree arena; trees[:held] back the runs
	computed int            // trees this View built, fresh or repaired
	repaired int            // of those, trees repaired from a run's

	// One routing state, valid for epoch ep (-1 before the first tree),
	// moved to each epoch a tree is built at by the timeline's deltas.
	ep   int32
	down []bool   // by link ID
	salt []uint64 // by AS index

	lastAt int32 // the epoch of the last path query, where the next looks first

	ts treeScratch
	rs repairScratch
}

type runKey struct{ dst, plane int32 }

// run is one tree valid in every epoch of [first, last]. loShut and
// hiShut record that the boundary just past that end touches the tree,
// so the run cannot grow that way.
type run struct {
	first, last    int32
	loShut, hiShut bool
	routes         Routes
}

// View returns a new, empty View over the oracle, for one goroutine at a
// time. It may serve many days in turn, with a Reset between them.
func (o *Oracle) View() *View {
	return &View{
		o:    o,
		keys: map[runKey]int{},
		ep:   -1,
		down: make([]bool, len(o.G.Links)),
		salt: make([]uint64, len(o.G.ASes)),
	}
}

// TreeAtPlane returns the routing tree toward dst during epoch ep on one
// forwarding plane. Plane 0 is canonical; higher planes perturb only the
// route tie-breaks (preference and policy stay Gao–Rexford-valid), so a
// multipath deployment is modeled as a small set of coexisting planes a
// flow hashes onto. The returned tree is the View's own storage: callers
// must not modify it, and it is valid only until the View next drops its
// trees, on Reset or on reaching the Oracle's bound.
//
// A query inside a run is answered from it. Otherwise the neighbouring
// runs try to grow toward ep, the earlier one first, and only if both
// fail is a tree built at ep, as a one-epoch run: repaired from whichever
// neighbouring run's edge has fewer flips between it and ep.
func (v *View) TreeAtPlane(dst, ep, plane int32) Tree {
	return v.routesAt(dst, ep, plane).Tree
}

// routesAt is TreeAtPlane with the class and length of every route.
func (v *View) routesAt(dst, ep, plane int32) Routes {
	k, ok := v.keys[runKey{dst, plane}]
	if !ok {
		k = len(v.runs)
		v.keys[runKey{dst, plane}] = k
		v.runs = append(v.runs, nil)
	}
	runs := v.runs[k]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].last >= ep })
	if i < len(runs) && runs[i].first <= ep {
		return runs[i].routes
	}
	psalt := planeSalt(plane)
	if i > 0 && v.grow(&runs[i-1], dst, ep, psalt) {
		return runs[i-1].routes
	}
	if i < len(runs) && v.grow(&runs[i], dst, ep, psalt) {
		return runs[i].routes
	}
	if v.held >= v.o.viewTrees {
		v.Reset()
		runs, i = v.runs[k], 0
	}
	v.moveTo(ep)
	var from *Routes
	var e0 int32
	if i > 0 {
		from, e0 = &runs[i-1].routes, runs[i-1].last
	}
	if i < len(runs) && (from == nil || v.o.TL.flipsBetween(ep, runs[i].first) < v.o.TL.flipsBetween(e0, ep)) {
		from, e0 = &runs[i].routes, runs[i].first
	}
	if v.held == len(v.trees) {
		v.trees = append(v.trees, Routes{}.sized(len(v.o.G.ASes)))
	}
	r := v.build(dst, psalt, from, e0, v.trees[v.held])
	v.computed++
	v.o.computes.Add(1)
	v.runs[k] = slices.Insert(runs, i, run{first: ep, last: ep, routes: r})
	v.held++
	return r
}

// Reset drops every tree the View holds, so that it can serve another
// day without carrying trees over: the next query of each key builds
// afresh, exactly as on a new View. The storage of the dropped trees and
// run lists is kept and reused, in the order it was first taken, by the
// trees built next; trees returned before Reset are no longer valid. The
// View's routing state and scratch survive, since neither feeds an
// answer.
func (v *View) Reset() {
	for k := range v.runs {
		v.runs[k] = v.runs[k][:0]
	}
	v.held = 0
}

// grow extends r one epoch boundary at a time toward ep, which lies
// outside it, and reports whether it got there. The first boundary that
// touches r's tree shuts that side of r for good.
func (v *View) grow(r *run, dst, ep int32, psalt uint64) bool {
	if ep > r.last {
		for !r.hiShut && r.last < ep {
			if v.touches(&r.routes, dst, r.last+1, true, psalt) {
				r.hiShut = true
			} else {
				r.last++
			}
		}
		return r.last == ep
	}
	for !r.loShut && r.first > ep {
		if v.touches(&r.routes, dst, r.first, false, psalt) {
			r.loShut = true
		} else {
			r.first--
		}
	}
	return r.first == ep
}

// touches reports whether the churn at the boundary into epoch b can
// change rt, crossing it forward (from b-1 into b) or backward (from b
// into b-1). A boundary it passes provably leaves rt unchanged; one it
// flags may leave it unchanged too. Every AS has exactly one best route
// (see tiebreak), so a tree is the unique assignment in which each AS
// holds the best route its neighbours' routes offer it, and rt stays that
// assignment across the boundary when each change passes one rule:
//
//  1. a link that goes down is not a tree edge, so it carried no chosen
//     route;
//  2. a link that comes up offers neither endpoint a route it strictly
//     prefers, by class, then length, then tie-break; an unrouted
//     endpoint prefers any route;
//  3. a salt change falls on the destination or on an unrouted AS, whose
//     tie-breaks choose nothing.
//
// Rules 1 and 2 are exact, so a change that fails one changes the tree,
// except that rule 1 judges tree edges by AS pair and so may flag a link
// with a parallel twin the route uses instead. Rule 3 is conservative on
// purpose, since policy shifts are rare boundaries.
func (v *View) touches(rt *Routes, dst, b int32, fwd bool, psalt uint64) bool {
	tl := v.o.TL
	for _, s := range tl.saltFlips(b) {
		if s.as != dst && rt.class[s.as] != phaseNone {
			return true
		}
	}
	for _, f := range tl.linkFlips(b) {
		l := &v.o.G.Links[f.link]
		if f.down == fwd { // the link goes down
			if rt.Tree[l.A] == l.B || rt.Tree[l.B] == l.A {
				return true
			}
			continue
		}
		if l.Peer {
			if v.betters(rt, l.A, l.B, phasePeer, b, psalt) || v.betters(rt, l.B, l.A, phasePeer, b, psalt) {
				return true
			}
		} else if v.betters(rt, l.A, l.B, phaseProvider, b, psalt) || v.betters(rt, l.B, l.A, phaseCustomer, b, psalt) {
			return true // A is the customer, B the provider
		}
	}
	return false
}

// betters reports whether a new link from x to y, over which x would
// learn y's route as a route of class c, gives x a route it strictly
// prefers to its own. Ties on class and length go to the tie-break under
// x's salt in epoch ep, on either side of the boundary: touches has
// already flagged any routed AS but the destination whose salt changes
// there, and the destination's own route cannot be beaten.
func (v *View) betters(rt *Routes, x, y int32, c uint8, ep int32, psalt uint64) bool {
	// Gao–Rexford export: y hands its provider or peer only a customer
	// route, and its customer any route.
	if rt.class[y] == phaseNone || (c != phaseProvider && rt.class[y] != phaseCustomer) {
		return false
	}
	switch {
	case rt.class[x] == phaseNone:
		return true
	case c != rt.class[x]:
		return c < rt.class[x]
	case rt.dist[y]+1 != rt.dist[x]:
		return rt.dist[y]+1 < rt.dist[x]
	}
	s := v.o.TL.SaltAt(x, ep) ^ psalt
	return tiebreak(x, y, s) < tiebreak(x, rt.Tree[x], s)
}

// moveTo brings the View's routing state to epoch ep: by the timeline's
// deltas, or by a rebuild when the walk would apply more flips than a
// rebuild writes. A walk applies the flips of every boundary it crosses
// as one contiguous range: forward in timeline order, so the latest flip
// of a link sets its state, and backward in reverse order with each
// state negated, so the earliest flip's prior state wins. Salt flips are
// XORs, which commute and undo themselves, so their order is free.
func (v *View) moveTo(ep int32) {
	tl := v.o.TL
	if v.ep < 0 || tl.flipsBetween(v.ep, ep) > len(v.down)+len(v.salt) {
		clear(v.down)
		for _, l := range tl.DownLinks(ep) {
			v.down[l] = true
		}
		tl.EpochSalts(ep, v.salt)
		v.ep = ep
		return
	}
	flips, shifts := tl.flipsAcross(v.ep, ep)
	if ep > v.ep {
		for _, f := range flips {
			v.down[f.link] = f.down
		}
	} else {
		for i := len(flips) - 1; i >= 0; i-- {
			v.down[flips[i].link] = !flips[i].down
		}
	}
	for _, s := range shifts {
		v.salt[s.as] ^= s.xor
	}
	v.ep = ep
}

// AppendPath appends the AS-index path from src to dst at time t on one
// forwarding plane (see TreeAtPlane) to buf and returns the extended
// slice; when src has no route it returns buf unchanged and false. Plane
// 0 is the canonical path.
func (v *View) AppendPath(buf []int32, src, dst int32, t time.Time, plane int32) ([]int32, bool) {
	v.o.queries.Add(1)
	v.lastAt = v.o.TL.epochNear(t, v.lastAt)
	return v.TreeAtPlane(dst, v.lastAt, plane).AppendPath(buf, src, dst)
}
