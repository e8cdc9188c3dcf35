package routing

import (
	"math"

	"churntomo/internal/topology"
)

// A route key orders routes by Gao–Rexford preference without the
// tie-break: class in the high byte, AS-path length below it, so a
// smaller key is a preferred route. An unrouted AS has the largest key.
const unroutedKey = math.MaxUint32

func routeKey(class uint8, dist int32) uint32 { return uint32(class)<<24 | uint32(dist) }

// keyOf returns the key of x's route in r.
func (r *Routes) keyOf(x int32) uint32 {
	if r.class[x] == phaseNone {
		return unroutedKey
	}
	return routeKey(r.class[x], r.dist[x])
}

// repairScratch is a View's working state for repair, sized to the graph
// on first use and reused by every repair the View makes.
type repairScratch struct {
	// An AS's best offer (key, neighbour, tie-break), valid where seen is
	// the current repair's generation; an unseen AS still has its old one.
	offer   []uint32
	via     []int32
	viaTie  []uint64
	seen    []uint32
	gen     uint32
	queue   []uint64 // min-heap of priority<<32 | AS, stale entries included
	touched []int32  // the ASes seen this repair
}

// repairBound is the most flips between a run's edge and the queried
// epoch that build repairs across. Each flip seeds one or two ASes, so a
// repair's cost grows with the flips while a ComputeTree's grows with the
// graph; on a 400-AS world a repair across 16 to 31 flips took about 0.6
// of a compute's time and one across 32 to 63 flips about 1.6, so the
// bound is a sixteenth of the graph's ASes.
func repairBound(g *topology.Graph) int { return len(g.ASes) / 16 }

// build returns the routes toward dst at the View's epoch, written into
// r's storage (see ComputeTree): repaired from the routes of a run whose
// edge lies at epoch e0 when from is non-nil and few enough flips lie
// between, computed afresh otherwise.
func (v *View) build(dst int32, psalt uint64, from *Routes, e0 int32, r Routes) Routes {
	if from == nil || v.o.TL.flipsBetween(e0, v.ep) > repairBound(v.o.G) {
		return v.ts.compute(v.o.G, dst, v.down, v.salt, psalt, r)
	}
	v.repaired++
	return v.repair(from, dst, e0, psalt, r)
}

// repair copies from, the routes toward dst at epoch e0, into r's storage
// (see ComputeTree; r must not share from's) and turns the copy into the
// routes at the View's epoch. It is Lifelong Planning A* without a
// heuristic over route keys. An AS is consistent when its key equals the
// best key its neighbours offer it; from is consistent everywhere in e0,
// so only an AS with a flipped link or salt between e0 and the View's
// epoch can start out inconsistent, and each one is seeded. The queue
// pops the inconsistent AS whose smaller of (key, offer) is least: an
// offer below the key is taken (the AS improves), a key below the offer
// is dropped to unrouted (its route lost support), and either way the
// neighbours whose offer from it changes are updated.
//
// This is exact because every offer is strictly worse than the
// offerer's own route: a customer or peer route is offered only from a
// customer route, a provider route from any route, and each adds a hop.
// So when the least priority in the queue is k, every AS whose key or
// true key is below k already holds its true key: the least AS that did
// not would have an offer or key below k, and so be in the queue. An
// improving AS is therefore settled for good, each AS is popped at most
// twice, and an empty queue leaves every AS consistent, which is the
// unique Gao–Rexford assignment. Next hops follow keys and do not feed
// them, so each AS takes the neighbour that offers its key, the least
// tie-break among equal offers.
func (v *View) repair(from *Routes, dst, e0 int32, psalt uint64, r Routes) Routes {
	r = r.sized(len(from.Tree))
	copy(r.Tree, from.Tree)
	copy(r.class, from.class)
	copy(r.dist, from.dist)
	sc := &v.rs
	if n := len(r.Tree); len(sc.seen) != n {
		sc.offer, sc.via, sc.viaTie, sc.seen = make([]uint32, n), make([]int32, n), make([]uint64, n), make([]uint32, n)
	}
	if sc.gen++; sc.gen == 0 {
		clear(sc.seen)
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]

	g := v.o.G
	flips, shifts := v.o.TL.flipsAcross(e0, v.ep)
	for _, f := range flips {
		l := &g.Links[f.link]
		v.reconsider(&r, l.A, dst, psalt)
		v.reconsider(&r, l.B, dst, psalt)
	}
	for _, s := range shifts {
		v.reconsider(&r, s.as, dst, psalt)
	}
	for len(sc.queue) > 0 {
		e := sc.pop()
		x := int32(uint32(e))
		key, offer := r.keyOf(x), sc.offer[x]
		if key == offer || uint32(e>>32) != min(key, offer) {
			continue // stale: settled, or queued again at another priority
		}
		class, dist := r.class[x], r.dist[x]
		if offer < key {
			r.class[x], r.dist[x] = uint8(offer>>24), int32(offer&0xffffff)
		} else {
			r.class[x], r.dist[x] = phaseNone, 0
			sc.push(offer, x)
		}
		for _, nb := range g.Neighbors[x] {
			if z := nb.Idx; z != dst && !v.down[nb.Link] {
				// nb.Rel is z's relation to x; x is z's reverse of it.
				rel := reverseRel[nb.Rel]
				if now := offerKey(rel, r.class[x], r.dist[x]); now != offerKey(rel, class, dist) {
					v.reoffer(&r, z, x, now, dst, psalt)
				}
			}
		}
	}
	for _, x := range sc.touched {
		r.Tree[x] = sc.via[x]
	}
	return r
}

// reverseRel maps a neighbour's relation to an AS to the AS's relation
// to that neighbour.
var reverseRel = [...]topology.Rel{
	topology.RelProvider: topology.RelCustomer,
	topology.RelCustomer: topology.RelProvider,
	topology.RelPeer:     topology.RelPeer,
}

// offerKey returns the key of the route an AS whose own route has class c
// and length d offers a neighbour to which it is rel. Gao–Rexford export:
// an AS offers its providers and peers only a customer route, and its
// customers any route.
func offerKey(rel topology.Rel, c uint8, d int32) uint32 {
	switch {
	case c == phaseNone:
		return unroutedKey
	case rel == topology.RelProvider:
		return routeKey(phaseProvider, d+1)
	case c != phaseCustomer:
		return unroutedKey
	case rel == topology.RelPeer:
		return routeKey(phasePeer, d+1)
	}
	return routeKey(phaseCustomer, d+1)
}

// see marks x seen by this repair. An unseen AS has had no flip and no
// neighbour change, so its best offer is still its old route.
func (v *View) see(r *Routes, x int32, psalt uint64) {
	sc := &v.rs
	if sc.seen[x] == sc.gen {
		return
	}
	sc.seen[x] = sc.gen
	sc.touched = append(sc.touched, x)
	sc.offer[x], sc.via[x] = r.keyOf(x), r.Tree[x]
	if y := r.Tree[x]; y != Unreachable {
		sc.viaTie[x] = tiebreak(x, y, v.salt[x]^psalt)
	}
}

// reoffer updates z's best offer after its neighbour x's offer to it
// changed to now, and queues z if that leaves it inconsistent. Only when
// x was z's best and got worse are all z's offers compared.
func (v *View) reoffer(r *Routes, z, x int32, now uint32, dst int32, psalt uint64) {
	v.see(r, z, psalt)
	sc := &v.rs
	switch {
	case now < sc.offer[z]:
		sc.offer[z], sc.via[z], sc.viaTie[z] = now, x, tiebreak(z, x, v.salt[z]^psalt)
	case sc.via[z] == x: // x's offer, z's best, got worse
		v.reconsider(r, z, dst, psalt)
		return
	case now == sc.offer[z]:
		if t := tiebreak(z, x, v.salt[z]^psalt); t < sc.viaTie[z] {
			sc.via[z], sc.viaTie[z] = x, t
		}
		return // the offer is unchanged
	default:
		return
	}
	if key := r.keyOf(z); sc.offer[z] != key {
		sc.push(min(key, sc.offer[z]), z)
	}
}

// reconsider recomputes the best route x's neighbours offer it under the
// View's state and r's keys, and queues x when that differs from x's
// key. The destination's route is fixed.
func (v *View) reconsider(r *Routes, x, dst int32, psalt uint64) {
	if x == dst {
		return
	}
	v.see(r, x, psalt)
	offer, via := uint32(unroutedKey), Unreachable
	var viaTie uint64
	s := v.salt[x] ^ psalt
	for _, nb := range v.o.G.Neighbors[x] {
		if v.down[nb.Link] {
			continue
		}
		y := nb.Idx
		k := offerKey(nb.Rel, r.class[y], r.dist[y])
		if k > offer || k == unroutedKey {
			continue
		}
		if t := tiebreak(x, y, s); k < offer || t < viaTie {
			offer, via, viaTie = k, y, t
		}
	}
	sc := &v.rs
	sc.offer[x], sc.via[x], sc.viaTie[x] = offer, via, viaTie
	if key := r.keyOf(x); offer != key {
		sc.push(min(key, offer), x)
	}
}

// push adds x to the queue at priority p.
func (sc *repairScratch) push(p uint32, x int32) {
	q := append(sc.queue, uint64(p)<<32|uint64(uint32(x)))
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	sc.queue = q
}

// pop removes and returns the least queue entry.
func (sc *repairScratch) pop() uint64 {
	q := sc.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	sc.queue = q
	return top
}
