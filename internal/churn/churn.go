package churn

import (
	"sort"

	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// pairKey identifies a (vantage, URL) pair.
type pairKey struct {
	vantage topology.ASN
	url     string
}

// pathID folds an AS path to a comparable key.
func pathID(p []topology.ASN) string {
	return string(appendPath(make([]byte, 0, len(p)*4), p))
}

// appendPath appends pathID's bytes for p to b.
func appendPath(b []byte, p []topology.ASN) []byte {
	for _, a := range p {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return b
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
// Both come from one pass over the records, read in place: each (vantage,
// URL) pair and each distinct AS path is interned once, and each cell — a
// pair's period at one granularity, or its month within one class — keeps
// a measurement count and at most MaxBucket distinct path IDs, which is
// all its bucket needs. The result does not depend on record order, but
// day-ordered records are the fast case: see measurer.cell.
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

// measurer is Measure's state: the interned pairs and paths, the cells,
// the distributions they fold into, and the lookups that find a cell.
type measurer struct {
	g      *topology.Graph
	pairs  map[pairKey]int32
	paths  map[string]int32
	buf    []byte
	cells  []cell
	splits []Distribution
	// classSplit maps a destination class to its split.
	classSplit map[topology.Class]int32

	// cur[split][pair] is 1 + the ID of the pair's latest cell in the
	// split, 0 before its first. It finds every cell while each (pair,
	// split) meets its slices in increasing order; cellOf, built from the
	// cells so far by the first record that revisits an earlier slice,
	// finds them after that, and cur is dropped.
	cur    [][]int32
	cellOf map[cellKey]int32
}

func newMeasurer(g *topology.Graph) *measurer {
	m := &measurer{
		g:      g,
		pairs:  map[pairKey]int32{},
		paths:  map[string]int32{},
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
	pair, path := m.pair(r), m.path(r.ASPath)
	var month int32
	for s, gran := range timeslice.All {
		slice := timeslice.KeyFor(gran, r.At).Index
		if gran == timeslice.Month {
			month = slice
		}
		m.cell(pair, int32(s), slice).see(path)
	}
	if class >= 0 {
		m.cell(pair, class, month).see(path)
	}
}

// class returns the split of the destination AS's class, or -1 without a
// graph or when the graph does not know the AS. A class gets its split
// the first time a record targets it.
func (m *measurer) class(target topology.ASN) int32 {
	if m.g == nil {
		return -1
	}
	as, ok := m.g.ByASN(target)
	if !ok {
		return -1
	}
	s, seen := m.classSplit[as.Class]
	if !seen {
		s = int32(len(m.splits))
		m.classSplit[as.Class] = s
		m.splits = append(m.splits, Distribution{Gran: timeslice.Month})
	}
	return s
}

// pair returns the ID of r's (vantage, URL) pair.
func (m *measurer) pair(r *iclab.Record) int32 {
	k := pairKey{r.Vantage, r.URL}
	id, ok := m.pairs[k]
	if !ok {
		id = int32(len(m.pairs))
		m.pairs[k] = id
	}
	return id
}

// path returns the ID of an AS path; equal paths share one.
func (m *measurer) path(p []topology.ASN) int32 {
	m.buf = appendPath(m.buf[:0], p)
	id, ok := m.paths[string(m.buf)]
	if !ok {
		id = int32(len(m.paths))
		m.paths[string(m.buf)] = id
	}
	return id
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
		if id < 0 || m.cells[id].slice < slice {
			id = m.newCell(cellKey{pair: pair, split: split, slice: slice})
			cur[pair] = id + 1
			return &m.cells[id]
		}
		if m.cells[id].slice == slice {
			return &m.cells[id]
		}
		m.cellOf = make(map[cellKey]int32, len(m.cells))
		for id := range m.cells {
			m.cellOf[m.cells[id].cellKey] = int32(id)
		}
		m.cur = nil
	}
	k := cellKey{pair: pair, split: split, slice: slice}
	id, ok := m.cellOf[k]
	if !ok {
		id = m.newCell(k)
		m.cellOf[k] = id
	}
	return &m.cells[id]
}

// newCell appends an empty cell and returns its ID.
func (m *measurer) newCell(k cellKey) int32 {
	m.cells = append(m.cells, cell{cellKey: k})
	return int32(len(m.cells) - 1)
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
	for i := range m.cells {
		c := &m.cells[i]
		if c.n < 2 {
			continue
		}
		d := &splits[c.split]
		d.Buckets[c.distinct]++
		d.Samples++
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
// unchanged so elimination statistics stay comparable.
func FirstPathOnly(records []iclab.Record) []iclab.Record {
	first := map[pairKey]string{}
	var out []iclab.Record
	for i := range records {
		r := records[i]
		if r.Fail != traceroute.OK {
			out = append(out, r)
			continue
		}
		pk := pairKey{r.Vantage, r.URL}
		id := pathID(r.ASPath)
		want, seen := first[pk]
		if !seen {
			first[pk] = id
			want = id
		}
		if id == want {
			out = append(out, r)
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
