package churn

import (
	"sort"

	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// pairTable numbers (vantage, URL) pairs in first-seen order. Records
// come grouped by URL, so a URL is interned only where it differs from
// the record before. Each URL lists its vantages with their pair IDs, and
// the fleet measures a URL's vantages in the same order every day, so a
// lookup scans that list from the last one found.
type pairTable struct {
	urls  map[string]int32
	byURL [][]vantagePair // by URL ID: its vantages, in first-seen order
	url   string          // the URL of the last lookup
	cur   int32           // its ID, -1 before the first lookup
	hint  int             // where in its list the last lookup's vantage sits
	n     int32           // pairs numbered
}

// vantagePair is one vantage of a URL and the ID of their pair.
type vantagePair struct {
	vantage topology.ASN
	pair    int32
}

func newPairTable() pairTable { return pairTable{urls: map[string]int32{}, cur: -1} }

// id returns the ID of r's (vantage, URL) pair.
func (t *pairTable) id(r *iclab.Record) int32 {
	if t.cur < 0 || r.URL != t.url {
		u, ok := t.urls[r.URL]
		if !ok {
			u = int32(len(t.byURL))
			t.urls[r.URL] = u
			t.byURL = append(t.byURL, nil)
		}
		t.url, t.cur, t.hint = r.URL, u, 0
	}
	vs := t.byURL[t.cur]
	for k := range vs {
		j := t.hint + k
		if j >= len(vs) {
			j -= len(vs)
		}
		if vs[j].vantage == r.Vantage {
			t.hint = j
			return vs[j].pair
		}
	}
	t.hint = len(vs)
	t.byURL[t.cur] = append(vs, vantagePair{vantage: r.Vantage, pair: t.n})
	t.n++
	return t.n - 1
}

// pathOf returns a conclusive record's path ID; one without panics.
func pathOf(r *iclab.Record) int32 {
	if r.PathID <= 0 {
		panic("churn: conclusive record without a path ID: number the record table with iclab.NumberPaths")
	}
	return r.PathID
}

// MaxBucket is the top histogram bucket ("5+" in Figure 3).
const MaxBucket = 5

// Distribution is, per granularity, the fraction of (src,dst) pair-periods
// that observed exactly 1, 2, 3, 4 or 5+ distinct AS paths. Index 0 of
// Buckets is unused; Buckets[b] is the fraction with b distinct paths
// (b = MaxBucket means "MaxBucket or more").
type Distribution struct {
	Gran    timeslice.Granularity
	Buckets [MaxBucket + 1]float64
	Samples int
}

// ChangedFrac returns the fraction of pair-periods with 2+ distinct paths —
// the headline churn quantities (25%/30%/38%/67% in the paper).
func (d Distribution) ChangedFrac() float64 {
	f := 0.0
	for b := 2; b <= MaxBucket; b++ {
		f += d.Buckets[b]
	}
	return f
}

// Measure computes Figure 3's distributions from the dataset, one per
// timeslice.All granularity in that order. Only conclusive records (usable
// AS paths) count, since the paper observes churn through the same
// traceroutes the tomography uses. Pair-periods with a single measurement
// are excluded per granularity — one observation cannot witness a change.
//
// With a graph, Measure also splits monthly churn by the CAIDA-style class
// of each record's destination AS, the paper's check that churn does not
// depend on destination type. A class is present once any record,
// conclusive or not, targets an AS of that class; records whose target the
// graph does not know stay out of the split. Without a graph, byClass is
// nil.
//
// Both come from one pass over the records, read in place: each record
// names its (vantage, URL) pair through a pair table and its path by its
// path ID (iclab.NumberPaths; the records must come from one numbered
// table, and a conclusive record without an ID panics), and each cell — a
// pair's period at one granularity, or its month within one class —
// keeps a measurement count and at most MaxBucket distinct path IDs,
// which is all its bucket needs. The result does not depend on record
// order, but day-ordered records are the fast case: see measurer.cell.
func Measure(records []iclab.Record, g *topology.Graph) (periods []Distribution, byClass map[topology.Class]Distribution) {
	m := newMeasurer(g)
	for i := range records {
		m.add(&records[i])
	}
	return m.result()
}

// cellKey names one cell: a pair's period in one split, where splits
// below len(timeslice.All) are Figure 3's granularities and the rest are
// destination classes at month granularity.
type cellKey struct {
	pair, split, slice int32
}

// cell is one pair-period's tally. Its bucket is min(distinct, MaxBucket),
// so once MaxBucket paths are seen no further ones need remembering.
type cell struct {
	cellKey
	n        int32
	distinct int32
	paths    [MaxBucket]int32
}

// measurer is Measure's state: the pair table, the cells, the
// distributions they fold into, and the lookups that find a cell.
type measurer struct {
	g     *topology.Graph
	pairs pairTable
	// cells holds the cells by ID in blocks of cellBlock, so they grow
	// without being copied; n counts them.
	cells  [][]cell
	n      int32
	splits []Distribution
	// classSplit maps a destination class to its split; once cached,
	// target and split are the last destination looked up and its split.
	classSplit map[topology.Class]int32
	cached     bool
	target     topology.ASN
	split      int32

	// cur[split][pair] is 1 + the ID of the pair's latest cell in the
	// split, 0 before its first. It finds every cell while each (pair,
	// split) meets its slices in increasing order; cellOf, built from the
	// cells so far by the first record that revisits an earlier slice,
	// finds them after that, and cur is dropped.
	cur    [][]int32
	cellOf map[cellKey]int32

	// slices holds, by granularity, the slice of day, the day of the last
	// record added once dayKnown.
	slices   [timeslice.Year + 1]int32
	day      int32
	dayKnown bool
}

// cellBlock is the number of cells one block of measurer.cells holds.
const cellBlock = 1024

func newMeasurer(g *topology.Graph) *measurer {
	m := &measurer{
		g:      g,
		pairs:  newPairTable(),
		splits: make([]Distribution, len(timeslice.All)),
	}
	for i, gran := range timeslice.All {
		m.splits[i].Gran = gran
	}
	if g != nil {
		m.classSplit = map[topology.Class]int32{}
	}
	return m
}

// add folds one record into the cells.
func (m *measurer) add(r *iclab.Record) {
	class := m.class(r.TargetASN) // the split of r's destination class, if any
	if r.Fail != traceroute.OK {
		return
	}
	pair, path := m.pairs.id(r), pathOf(r)
	// Every granularity's slice is a union of whole UTC days, so the day
	// fixes all of a record's slices; day-ordered records reuse them.
	if day := timeslice.KeyFor(timeslice.Day, r.At).Index; !m.dayKnown || day != m.day {
		for s, gran := range timeslice.All {
			m.slices[s] = timeslice.KeyFor(gran, r.At).Index
		}
		m.day, m.dayKnown = day, true
	}
	for s, slice := range m.slices {
		m.cell(pair, int32(s), slice).see(path)
	}
	if class >= 0 {
		m.cell(pair, class, m.slices[timeslice.Month]).see(path)
	}
}

// class returns the split of the destination AS's class, or -1 without a
// graph or when the graph does not know the AS. A class gets its split
// the first time a record targets it. Records come grouped by URL, so the
// graph is probed only where the destination differs from the last one.
func (m *measurer) class(target topology.ASN) int32 {
	if m.g == nil {
		return -1
	}
	if m.cached && target == m.target {
		return m.split
	}
	s := int32(-1)
	if as, ok := m.g.ByASN(target); ok {
		var seen bool
		if s, seen = m.classSplit[as.Class]; !seen {
			s = int32(len(m.splits))
			m.classSplit[as.Class] = s
			m.splits = append(m.splits, Distribution{Gran: timeslice.Month})
		}
	}
	m.target, m.split, m.cached = target, s, true
	return s
}

// at returns the cell of ID id.
func (m *measurer) at(id int32) *cell {
	return &m.cells[id/cellBlock][id%cellBlock]
}

// cell returns the cell of (pair, split, slice), creating it if new.
// While each (pair, split) meets its slices in increasing order, as
// day-ordered records always do, the cell is the pair's latest one in the
// split or a new one, since no earlier cell can hold a later slice. The
// first record that revisits an earlier slice builds cellOf from the
// cells so far, and every later lookup probes it.
func (m *measurer) cell(pair, split, slice int32) *cell {
	if m.cellOf == nil {
		for int(split) >= len(m.cur) {
			m.cur = append(m.cur, nil)
		}
		cur := m.cur[split]
		if n := int(pair) + 1; n > len(cur) {
			cur = append(cur, make([]int32, n-len(cur))...)
			m.cur[split] = cur
		}
		id := cur[pair] - 1
		if id < 0 || m.at(id).slice < slice {
			id = m.newCell(cellKey{pair: pair, split: split, slice: slice})
			cur[pair] = id + 1
			return m.at(id)
		}
		if c := m.at(id); c.slice == slice {
			return c
		}
		m.cellOf = make(map[cellKey]int32, m.n)
		for id := range m.n {
			m.cellOf[m.at(id).cellKey] = id
		}
		m.cur = nil
	}
	k := cellKey{pair: pair, split: split, slice: slice}
	id, ok := m.cellOf[k]
	if !ok {
		id = m.newCell(k)
		m.cellOf[k] = id
	}
	return m.at(id)
}

// newCell adds an empty cell and returns its ID.
func (m *measurer) newCell(k cellKey) int32 {
	if m.n%cellBlock == 0 {
		m.cells = append(m.cells, make([]cell, 0, cellBlock))
	}
	last := len(m.cells) - 1
	m.cells[last] = append(m.cells[last], cell{cellKey: k})
	m.n++
	return m.n - 1
}

// see records one measurement over path.
func (c *cell) see(path int32) {
	c.n++
	if c.distinct == MaxBucket {
		return
	}
	for _, q := range c.paths[:c.distinct] {
		if q == path {
			return
		}
	}
	c.paths[c.distinct] = path
	c.distinct++
}

// result folds the cells into the distributions.
func (m *measurer) result() (periods []Distribution, byClass map[topology.Class]Distribution) {
	splits := m.splits
	for _, block := range m.cells {
		for i := range block {
			c := &block[i]
			if c.n < 2 {
				continue
			}
			d := &splits[c.split]
			d.Buckets[c.distinct]++
			d.Samples++
		}
	}
	for s := range splits {
		d := &splits[s]
		if d.Samples > 0 {
			for b := 1; b <= MaxBucket; b++ {
				d.Buckets[b] /= float64(d.Samples)
			}
		}
	}
	if m.g != nil {
		byClass = make(map[topology.Class]Distribution, len(m.classSplit))
		for class, s := range m.classSplit {
			byClass[class] = splits[s]
		}
	}
	n := len(timeslice.All)
	return splits[:n:n], byClass
}

// FirstPathOnly returns the subset of records that used the first AS path
// ever observed for their (vantage, URL) pair — the paper's Figure 4
// ablation, which freezes out churn's contribution and shows the CNFs
// collapse to many solutions. Records must be passed in measurement order
// (Dataset.Records already is); inconclusive records pass through
// unchanged so elimination statistics stay comparable. Paths compare by
// path ID, so the records must come from one numbered table, and a
// conclusive record without an ID panics. A first pass finds each pair's
// first path and counts the records kept, and the second copies them into
// a slice of that length.
func FirstPathOnly(records []iclab.Record) []iclab.Record {
	pairs := newPairTable()
	var first []int32 // by pair: the path ID of its first conclusive record
	kept := 0
	for i := range records {
		r := &records[i]
		if r.Fail != traceroute.OK {
			kept++
			continue
		}
		pair, path := pairs.id(r), pathOf(r)
		if int(pair) == len(first) {
			first = append(first, path)
		}
		if first[pair] == path {
			kept++
		}
	}
	out := make([]iclab.Record, 0, kept)
	for i := range records {
		r := &records[i]
		if r.Fail != traceroute.OK || first[pairs.id(r)] == r.PathID {
			out = append(out, *r)
		}
	}
	return out
}

// Classes returns the classes present in Measure's by-class split,
// sorted for deterministic rendering.
func Classes(m map[topology.Class]Distribution) []topology.Class {
	out := make([]topology.Class, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
