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
// all its bucket needs.
func Measure(records []iclab.Record, g *topology.Graph) (periods []Distribution, byClass map[topology.Class]Distribution) {
	m := measurer{pairs: map[pairKey]int32{}, paths: map[string]int32{}, cellOf: map[cellKey]int32{}}
	splits := make([]Distribution, len(timeslice.All))
	for i, gran := range timeslice.All {
		splits[i].Gran = gran
	}
	var classSplit map[topology.Class]int32
	if g != nil {
		classSplit = map[topology.Class]int32{}
	}
	for i := range records {
		r := &records[i]
		class := int32(-1) // the split of r's destination class, if any
		if g != nil {
			if as, ok := g.ByASN(r.TargetASN); ok {
				s, seen := classSplit[as.Class]
				if !seen {
					s = int32(len(splits))
					classSplit[as.Class] = s
					splits = append(splits, Distribution{Gran: timeslice.Month})
				}
				class = s
			}
		}
		if r.Fail != traceroute.OK {
			continue
		}
		pair, path := m.pair(r), m.path(r.ASPath)
		var month int32
		for s, gran := range timeslice.All {
			slice := timeslice.KeyFor(gran, r.At).Index
			if gran == timeslice.Month {
				month = slice
			}
			m.add(cellKey{pair: pair, split: int32(s), slice: slice}, path)
		}
		if class >= 0 {
			m.add(cellKey{pair: pair, split: class, slice: month}, path)
		}
	}
	for _, c := range m.cells {
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
	if g != nil {
		byClass = make(map[topology.Class]Distribution, len(classSplit))
		for class, s := range classSplit {
			byClass[class] = splits[s]
		}
	}
	n := len(timeslice.All)
	return splits[:n:n], byClass
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
	split    int32
	n        int32
	distinct int32
	paths    [MaxBucket]int32
}

// measurer holds Measure's interned pairs and paths and its cells.
type measurer struct {
	pairs  map[pairKey]int32
	paths  map[string]int32
	buf    []byte
	cellOf map[cellKey]int32
	cells  []cell
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

// add records one measurement over path in cell k.
func (m *measurer) add(k cellKey, path int32) {
	id, ok := m.cellOf[k]
	if !ok {
		id = int32(len(m.cells))
		m.cellOf[k] = id
		m.cells = append(m.cells, cell{split: k.split})
	}
	c := &m.cells[id]
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
