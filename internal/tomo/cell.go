package tomo

// This file is construction's shared core, used by Build, BuildAndSolve and
// Incremental alike. Each conclusive record is folded, by its path ID and
// URL, into one cell per (URL, time slice). For every distinct path it has
// seen, a cell keeps a mask saying, per anomaly kind, whether the path was
// seen censored and whether it was seen clean, so one cell serves all five
// kinds: materialize reads one kind's Instance off the masks, with the
// paths in rank order.

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// A path mask has bit k set when the path was seen with kind k censored,
// and bit cleanShift+k when it was seen with kind k clean.
const (
	cleanShift   = 8
	censoredBits = 1<<cleanShift - 1
)

// maskOf returns the path mask of one record's anomaly set.
func maskOf(s anomaly.Set) uint16 {
	s &= anomaly.AllKinds
	return uint16(s) | uint16(anomaly.AllKinds&^s)<<cleanShift
}

// kindMask returns the censored bits of the given kinds.
func kindMask(kinds []anomaly.Kind) uint16 {
	var m uint16
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// interner assigns dense IDs to distinct keys (the URLs) in first-seen
// order and ranks them by key. IDs never change; ranks are refreshed by
// rerank and only ever move to make room for new keys, so two keys'
// relative rank order is fixed once both are ranked.
type interner struct {
	ids   map[string]int32
	keys  []string // by ID
	order []int32  // IDs in key order
	rank  []int32  // by ID: position in order
}

func newInterner() interner { return interner{ids: map[string]int32{}} }

func (t *interner) intern(key string) int32 {
	id, ok := t.ids[key]
	if !ok {
		id = int32(len(t.keys))
		t.ids[key] = id
		t.keys = append(t.keys, key)
	}
	return id
}

// rerank ranks the keys added since the last call: they are sorted among
// themselves and merged into the existing order, so the cost is linear in
// the table plus a sort of the new keys only.
func (t *interner) rerank() {
	old, n := len(t.order), len(t.keys)
	if old == n {
		return
	}
	fresh := make([]int32, 0, n-old)
	for id := old; id < n; id++ {
		fresh = append(fresh, int32(id))
	}
	byKey := func(a, b int32) int { return cmp.Compare(t.keys[a], t.keys[b]) }
	slices.SortFunc(fresh, byKey)
	merged := make([]int32, 0, n)
	i, j := 0, 0
	for i < old && j < len(fresh) {
		if byKey(t.order[i], fresh[j]) < 0 {
			merged, i = append(merged, t.order[i]), i+1
		} else {
			merged, j = append(merged, fresh[j]), j+1
		}
	}
	merged = append(append(merged, t.order[i:]...), fresh[j:]...)
	t.order = merged
	t.rank = slices.Grow(t.rank, n-old)[:n]
	for r, id := range merged {
		t.rank[id] = int32(r)
	}
}

// pathTable holds the AS paths the records fold in, by the path ID their
// table numbered them with (iclab.NumberPaths): the record's own array,
// which the instances built from it share, the path's ASes as dense AS
// IDs, which index materialize's scratch, and a rank that orders the
// paths ASN by ASN (a prefix first), the order materialize lists a cell's
// paths in. Ranks are refreshed by rerank and only ever move to make room
// for new paths, so two paths' relative rank order is fixed once both are
// ranked. The table also keeps fold's slots, which locate a path within
// the current part of each granularity.
type pathTable struct {
	paths [][]topology.ASN // by path ID
	hops  [][]int32        // by path ID: the path's AS IDs, nil until seen
	fresh []int32          // the IDs seen since the last rerank
	order []int32          // the seen IDs in path order
	rank  []int32          // by path ID: position in order
	asID  map[topology.ASN]int32
	asns  []topology.ASN // by AS ID

	// slots[g] locates, by path ID, a path in the current part of fold's
	// granularity g, valid when its stamp is stamps[g]. A part's paths are
	// stamped afresh whenever it becomes current, and stamp counts every
	// such change, so no slot of an earlier part or an earlier fold reads
	// as valid.
	slots  [][]slot
	stamps []uint32
	stamp  uint32
}

// slot is where a path sits in a part's paths, as of a stamp.
type slot struct {
	stamp uint32
	at    int32
}

func newPathTable() pathTable { return pathTable{asID: map[topology.ASN]int32{}} }

// see returns the ID of r's path, adding the path to the table the first
// time it is seen. The records the table sees must come from one
// numbered table: a conclusive record without a path ID panics, and so
// does one whose ID names a path array other than the one the table
// holds for it.
func (t *pathTable) see(r *iclab.Record) int32 {
	id := r.PathID
	if id <= 0 {
		panic("tomo: conclusive record without a path ID: number the record table with iclab.NumberPaths")
	}
	if int(id) < len(t.hops) && t.hops[id] != nil {
		if p := t.paths[id]; len(p) != len(r.ASPath) || len(p) > 0 && &p[0] != &r.ASPath[0] {
			panic("tomo: one path ID names two paths: the records come from more than one numbered table")
		}
		return id
	}
	if n := int(id) + 1; n > len(t.hops) {
		n = max(n, 2*len(t.hops))
		t.paths = slices.Grow(t.paths, n-len(t.paths))[:n]
		t.hops = slices.Grow(t.hops, n-len(t.hops))[:n]
		for g := range t.slots {
			t.slots[g] = slices.Grow(t.slots[g], n-len(t.slots[g]))[:n]
		}
	}
	hops := make([]int32, len(r.ASPath))
	for i, a := range r.ASPath {
		h, ok := t.asID[a]
		if !ok {
			h = int32(len(t.asns))
			t.asID[a] = h
			t.asns = append(t.asns, a)
		}
		hops[i] = h
	}
	t.paths[id], t.hops[id] = r.ASPath, hops
	t.fresh = append(t.fresh, id)
	return id
}

// rerank ranks the paths seen since the last call: they are sorted among
// themselves and merged into the existing order, so the cost is linear in
// the table plus a sort of the new paths only.
func (t *pathTable) rerank() {
	if len(t.fresh) == 0 {
		return
	}
	byPath := func(a, b int32) int { return slices.Compare(t.paths[a], t.paths[b]) }
	slices.SortFunc(t.fresh, byPath)
	merged := make([]int32, 0, len(t.order)+len(t.fresh))
	i, j := 0, 0
	for i < len(t.order) && j < len(t.fresh) {
		if byPath(t.order[i], t.fresh[j]) < 0 {
			merged, i = append(merged, t.order[i]), i+1
		} else {
			merged, j = append(merged, t.fresh[j]), j+1
		}
	}
	merged = append(append(merged, t.order[i:]...), t.fresh[j:]...)
	t.order, t.fresh = merged, t.fresh[:0]
	if len(t.rank) < len(t.hops) {
		t.rank = slices.Grow(t.rank, len(t.hops)-len(t.rank))[:len(t.hops)]
	}
	for r, id := range merged {
		t.rank[id] = int32(r)
	}
}

// current makes p the current part of granularity g: it stamps p's paths
// into the granularity's slots under a new stamp.
func (t *pathTable) current(g int, p *part) {
	if t.stamp == math.MaxUint32 {
		// The stamps wrap: clear every slot so none reads as valid.
		for _, s := range t.slots {
			clear(s)
		}
		t.stamp = 0
	}
	t.stamp++
	t.stamps[g] = t.stamp
	for j, e := range p.paths {
		t.slots[g][e.id] = slot{stamp: t.stamp, at: int32(j)}
	}
}

// pathMask is one distinct path of a cell and what was seen on it.
type pathMask struct {
	id   int32
	mask uint16
}

// cellKey identifies a (URL, time slice) cell.
type cellKey struct {
	url   int32
	slice timeslice.Key
}

// part is what one fold saw of one cell: the whole cell in a batch build,
// one resident day of it in Incremental.
type part struct {
	key    cellKey
	n      int        // records folded in
	signal uint16     // censored bits of every mask: kinds that saw a censored path
	paths  []pathMask // distinct paths, in first-seen order
}

// fold folds the conclusive records into one part per (URL, slice) they
// reach at the given granularities, adding their paths to the path table
// and interning URLs. Inconclusive records are eliminated (§3.1). Parts
// are returned in creation order.
func fold(records []iclab.Record, grans []timeslice.Granularity, paths *pathTable, urls *interner) []*part {
	var (
		parts []*part
		index = map[cellKey]int32{}
		// cur holds the part of each granularity for the current URL and
		// day. Records arrive grouped by day and URL, so the URL and the
		// part index are probed about once per URL-day instead of once per
		// record.
		cur     = make([]int32, len(grans))
		curURL  = int32(-1)
		curName string
		curDay  timeslice.Key
	)
	if paths.slots == nil {
		paths.slots = make([][]slot, len(grans))
		paths.stamps = make([]uint32, len(grans))
		for g := range grans {
			paths.slots[g] = make([]slot, len(paths.hops))
		}
	}
	for i := range records {
		r := &records[i]
		if r.Fail != traceroute.OK {
			continue
		}
		id := paths.see(r)
		// Every granularity's slice is a union of whole UTC days, so the
		// day fixes all of a record's parts.
		if day := timeslice.KeyFor(timeslice.Day, r.At); curURL < 0 || r.URL != curName || day != curDay {
			url := urls.intern(r.URL)
			for g, gran := range grans {
				key := cellKey{url: url, slice: timeslice.KeyFor(gran, r.At)}
				p, ok := index[key]
				if !ok {
					// The granularity's current part sizes the new one's
					// path list: a URL-day sees about as many paths as
					// the one before, so starting a quarter above that
					// count, a day part seldom regrows its list.
					var first []pathMask
					if curURL >= 0 {
						first = make([]pathMask, 0, len(parts[cur[g]].paths)*5/4)
					}
					p = int32(len(parts))
					index[key] = p
					parts = append(parts, &part{key: key, paths: first})
				}
				if curURL < 0 || p != cur[g] {
					cur[g] = p
					paths.current(g, parts[p])
				}
			}
			curURL, curName, curDay = url, r.URL, day
		}
		m := maskOf(r.Anomalies)
		for g, p := range cur {
			pt := parts[p]
			pt.n++
			pt.signal |= m & censoredBits
			if s := &paths.slots[g][id]; s.stamp == paths.stamps[g] {
				pt.paths[s.at].mask |= m
			} else {
				*s = slot{stamp: paths.stamps[g], at: int32(len(pt.paths))}
				pt.paths = append(pt.paths, pathMask{id: id, mask: m})
			}
		}
	}
	return parts
}

// compareCells orders cells as their instances are ordered: by URL, then
// granularity, then slice index; a cell's kinds follow in kind order.
func compareCells(a, b cellKey, urlRank []int32) int {
	if c := cmp.Compare(urlRank[a.url], urlRank[b.url]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.slice.Gran, b.slice.Gran); c != 0 {
		return c
	}
	return cmp.Compare(a.slice.Index, b.slice.Index)
}

// cellScratch is the reusable working state of buildCell. acc (indexed by
// path rank) and varOf (indexed by AS ID) are all zero between uses; the
// slices keep their capacity. Everything that outlives the call (the
// Instance and its lists) is freshly allocated.
type cellScratch struct {
	acc   []uint16
	ranks []int32
	cell  []pathMask
	// varOf maps an AS ID to its variable in the instance being built;
	// varIDs lists those AS IDs in variable order.
	varOf  []int32
	varIDs []int32
}

var cellScratchPool = sync.Pool{New: func() any { return new(cellScratch) }}

// union ORs the parts' paths into one list in rank order. No mask is zero
// (a record sets a censored or a clean bit for every kind), so a zero acc
// entry marks a rank not yet seen.
func (sc *cellScratch) union(parts []*part, t *pathTable) []pathMask {
	if len(sc.acc) < len(t.order) {
		sc.acc = make([]uint16, len(t.order))
	}
	ranks := sc.ranks[:0]
	for _, p := range parts {
		for _, e := range p.paths {
			r := t.rank[e.id]
			if sc.acc[r] == 0 {
				ranks = append(ranks, r)
			}
			sc.acc[r] |= e.mask
		}
	}
	slices.Sort(ranks)
	cell := sc.cell[:0]
	for _, r := range ranks {
		cell = append(cell, pathMask{id: t.order[r], mask: sc.acc[r]})
		sc.acc[r] = 0
	}
	sc.ranks, sc.cell = ranks, cell
	return cell
}

// buildCell materializes the CNFs of the cell made of parts: one for each
// kind in kinds that some part saw censored, in kind order, each handed to
// emit. The tables must be ranked.
func buildCell(parts []*part, kinds uint16, paths *pathTable, urls *interner, emit func(*Instance)) {
	n, signal := 0, uint16(0)
	for _, p := range parts {
		n += p.n
		signal |= p.signal
	}
	if signal&kinds == 0 {
		return
	}
	sc := cellScratchPool.Get().(*cellScratch)
	cell := sc.union(parts, paths)
	key := parts[0].key
	for k := anomaly.Kind(0); k < anomaly.NumKinds; k++ {
		if signal&kinds&(1<<k) != 0 {
			emit(sc.materialize(Key{URL: urls.keys[key.url], Slice: key.slice, Kind: k}, n, cell, paths))
		}
	}
	cellScratchPool.Put(sc)
}

// materialize turns one kind of a cell into an Instance. The ASes on the
// kind's clean paths become variables 1..negated, numbered as the paths
// name them in the cell's rank order (an AS on several clean paths is
// numbered once); then each censored path, in rank order, numbers its
// ASes not yet numbered and lists its variables in censored. A path seen
// both censored and clean has all its ASes negated and makes the CNF
// unsatisfiable, which is the intended §3.2 semantics.
func (sc *cellScratch) materialize(key Key, n int, cell []pathMask, t *pathTable) *Instance {
	censored := uint16(1) << key.Kind
	clean := censored << cleanShift
	npos, nlits := 0, 0
	for _, e := range cell {
		if e.mask&censored != 0 {
			npos++
			nlits += len(t.hops[e.id])
		}
	}
	if len(sc.varOf) < len(t.asns) {
		sc.varOf = make([]int32, len(t.asns))
	}
	ids := sc.varIDs[:0]
	intern := func(h int32) int32 {
		if sc.varOf[h] == 0 {
			ids = append(ids, h)
			sc.varOf[h] = int32(len(ids))
		}
		return sc.varOf[h]
	}

	for _, e := range cell {
		if e.mask&clean == 0 {
			continue
		}
		for _, h := range t.hops[e.id] {
			intern(h)
		}
	}
	in := &Instance{Key: key, Measurements: n, negated: len(ids)}
	in.PositivePaths = make([][]topology.ASN, 0, npos)
	in.censored = make([]int32, 0, nlits)
	for _, e := range cell {
		if e.mask&censored == 0 {
			continue
		}
		in.PositivePaths = append(in.PositivePaths, t.paths[e.id])
		for _, h := range t.hops[e.id] {
			in.censored = append(in.censored, intern(h))
		}
	}
	if len(ids) > 0 {
		in.Vars = make([]topology.ASN, len(ids))
		for v, h := range ids {
			in.Vars[v] = t.asns[h]
			sc.varOf[h] = 0
		}
	}
	sc.varIDs = ids
	return in
}
