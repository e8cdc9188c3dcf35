package churn

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

var t0 = time.Date(2016, 5, 10, 6, 0, 0, 0, time.UTC)

func rec(v topology.ASN, url string, at time.Time, path []topology.ASN) iclab.Record {
	return iclab.Record{Vantage: v, URL: url, At: at, ASPath: path, Fail: traceroute.OK}
}

// referenceMeasure recounts each granularity separately, with a set of
// path strings per cell; it is the differential tests' reference for
// Measure's per-granularity distributions.
func referenceMeasure(records []iclab.Record, grans []timeslice.Granularity) []Distribution {
	if grans == nil {
		grans = timeslice.All
	}
	out := make([]Distribution, 0, len(grans))
	for _, g := range grans {
		type cell struct {
			paths map[string]bool
			n     int
		}
		cells := map[pairKey]map[timeslice.Key]*cell{}
		for i := range records {
			r := &records[i]
			if r.Fail != traceroute.OK {
				continue
			}
			pk := pairKey{r.Vantage, r.URL}
			slice := timeslice.KeyFor(g, r.At)
			bySlice := cells[pk]
			if bySlice == nil {
				bySlice = map[timeslice.Key]*cell{}
				cells[pk] = bySlice
			}
			c := bySlice[slice]
			if c == nil {
				c = &cell{paths: map[string]bool{}}
				bySlice[slice] = c
			}
			c.paths[pathID(r.ASPath)] = true
			c.n++
		}
		d := Distribution{Gran: g}
		for _, bySlice := range cells {
			for _, c := range bySlice {
				if c.n < 2 {
					continue
				}
				b := len(c.paths)
				if b > MaxBucket {
					b = MaxBucket
				}
				d.Buckets[b]++
				d.Samples++
			}
		}
		if d.Samples > 0 {
			for b := 1; b <= MaxBucket; b++ {
				d.Buckets[b] /= float64(d.Samples)
			}
		}
		out = append(out, d)
	}
	return out
}

// referenceByDestinationClass copies each class's records and measures
// them at one granularity; it is the reference for Measure's by-class
// split.
func referenceByDestinationClass(records []iclab.Record, g *topology.Graph, gran timeslice.Granularity) map[topology.Class]Distribution {
	byClass := map[topology.Class][]iclab.Record{}
	for i := range records {
		r := records[i]
		as, ok := g.ByASN(r.TargetASN)
		if !ok {
			continue
		}
		byClass[as.Class] = append(byClass[as.Class], r)
	}
	out := map[topology.Class]Distribution{}
	for class, recs := range byClass {
		ds := referenceMeasure(recs, []timeslice.Granularity{gran})
		if len(ds) == 1 {
			out[class] = ds[0]
		}
	}
	return out
}

func TestMeasureCountsDistinctPaths(t *testing.T) {
	p1 := []topology.ASN{1, 2, 3}
	p2 := []topology.ASN{1, 4, 3}
	records := []iclab.Record{
		// Pair (1, a.com): two paths same day.
		rec(1, "a.com", t0, p1),
		rec(1, "a.com", t0.Add(8*time.Hour), p2),
		// Pair (2, a.com): stable, two measurements.
		rec(2, "a.com", t0, p1),
		rec(2, "a.com", t0.Add(8*time.Hour), p1),
		// Pair (3, a.com): single measurement — excluded.
		rec(3, "a.com", t0, p1),
	}
	ds, _ := Measure(records, nil)
	d := ds[timeslice.Day]
	if d.Gran != timeslice.Day {
		t.Fatalf("distribution %d is %v, want day", timeslice.Day, d.Gran)
	}
	if d.Samples != 2 {
		t.Fatalf("samples %d, want 2 (single-measurement cells excluded)", d.Samples)
	}
	if d.Buckets[1] != 0.5 || d.Buckets[2] != 0.5 {
		t.Errorf("buckets %v", d.Buckets)
	}
	if d.ChangedFrac() != 0.5 {
		t.Errorf("ChangedFrac %.2f", d.ChangedFrac())
	}

	// Pair (4, b.com): seven distinct paths in one day, more than a cell
	// remembers. It lands in the 5+ bucket beside the stable pair, and the
	// buckets still sum to 1.
	many := []iclab.Record{records[2], records[3]}
	for i := 0; i < 7; i++ {
		many = append(many, rec(4, "b.com", t0.Add(time.Duration(i)*time.Hour), []topology.ASN{1, topology.ASN(10 + i), 3}))
	}
	many = append(many, rec(4, "b.com", t0.Add(7*time.Hour), p1))
	ds, _ = Measure(many, nil)
	d = ds[timeslice.Day]
	if d.Samples != 2 || d.Buckets[1] != 0.5 || d.Buckets[MaxBucket] != 0.5 {
		t.Errorf("with a 7-path cell: samples %d, buckets %v", d.Samples, d.Buckets)
	}
	sum := 0.0
	for _, f := range d.Buckets {
		sum += f
	}
	if sum != 1 {
		t.Errorf("with a 7-path cell: buckets sum to %v", sum)
	}
}

func TestMeasureGranularityAccumulates(t *testing.T) {
	// One path per day, five days, all different: day cells see 1 path
	// each (no change), the month cell sees 5 (5+ bucket).
	var records []iclab.Record
	for day := 0; day < 5; day++ {
		p := []topology.ASN{1, topology.ASN(10 + day), 3}
		records = append(records, rec(1, "a.com", t0.AddDate(0, 0, day), p))
		records = append(records, rec(1, "a.com", t0.AddDate(0, 0, day).Add(6*time.Hour), p))
	}
	ds, _ := Measure(records, nil)
	day, month := ds[timeslice.Day], ds[timeslice.Month]
	if day.ChangedFrac() != 0 {
		t.Errorf("day ChangedFrac %.2f, want 0", day.ChangedFrac())
	}
	if month.Buckets[MaxBucket] != 1.0 {
		t.Errorf("month 5+ bucket %.2f, want 1", month.Buckets[MaxBucket])
	}
}

func TestMeasureSkipsInconclusive(t *testing.T) {
	bad := rec(1, "a.com", t0, []topology.ASN{1, 2})
	bad.Fail = traceroute.ErrTraceFailed
	ds, _ := Measure([]iclab.Record{bad, bad}, nil)
	for _, d := range ds {
		if d.Samples != 0 {
			t.Errorf("%v: inconclusive records counted: %d samples", d.Gran, d.Samples)
		}
	}
}

func TestFirstPathOnly(t *testing.T) {
	p1 := []topology.ASN{1, 2, 3}
	p2 := []topology.ASN{1, 4, 3}
	records := []iclab.Record{
		rec(1, "a.com", t0, p1),
		rec(1, "a.com", t0.Add(time.Hour), p2),   // filtered: new path
		rec(1, "a.com", t0.Add(2*time.Hour), p1), // kept: first path again
		rec(2, "a.com", t0, p2),                  // kept: pair 2's first path
		rec(2, "a.com", t0.Add(time.Hour), p1),   // filtered
	}
	bad := rec(1, "a.com", t0.Add(3*time.Hour), nil)
	bad.Fail = traceroute.ErrNoMapping
	records = append(records, bad) // inconclusive: passes through

	out := FirstPathOnly(records)
	if len(out) != 4 {
		t.Fatalf("kept %d records, want 4", len(out))
	}
	// The surviving conclusive records for pair 1 all use p1.
	for _, r := range out {
		if r.Fail != traceroute.OK {
			continue
		}
		if r.Vantage == 1 && pathID(r.ASPath) != pathID(p1) {
			t.Errorf("pair 1 kept a non-first path")
		}
		if r.Vantage == 2 && pathID(r.ASPath) != pathID(p2) {
			t.Errorf("pair 2 kept a non-first path")
		}
	}
}

func TestByDestinationClass(t *testing.T) {
	g, err := topology.Generate(topology.GenConfig{Seed: 1, ASes: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Two targets of different classes.
	var content, transit topology.ASN
	for i := range g.ASes {
		switch {
		case content == 0 && g.ASes[i].Class == topology.ClassContent:
			content = g.ASes[i].ASN
		case transit == 0 && g.ASes[i].Class == topology.ClassTransit:
			transit = g.ASes[i].ASN
		}
	}
	if content == 0 || transit == 0 {
		t.Fatal("fixture classes missing")
	}
	mk := func(dst topology.ASN, paths ...[]topology.ASN) []iclab.Record {
		var out []iclab.Record
		for i, p := range paths {
			r := rec(1, "u.com", t0.Add(time.Duration(i)*time.Hour), p)
			r.TargetASN = dst
			out = append(out, r)
		}
		return out
	}
	records := append(
		mk(content, []topology.ASN{1, 2}, []topology.ASN{1, 3}),    // churns
		mk(transit, []topology.ASN{1, 2}, []topology.ASN{1, 2})...) // stable
	_, byClass := Measure(records, g)
	if byClass[topology.ClassContent].ChangedFrac() != 1 {
		t.Errorf("content class ChangedFrac %.2f", byClass[topology.ClassContent].ChangedFrac())
	}
	if byClass[topology.ClassTransit].ChangedFrac() != 0 {
		t.Errorf("transit class ChangedFrac %.2f", byClass[topology.ClassTransit].ChangedFrac())
	}
	if got := Classes(byClass); len(got) != 2 || got[0] != topology.ClassTransit {
		t.Errorf("Classes = %v", got)
	}
	if _, none := Measure(records, nil); none != nil {
		t.Errorf("split without a graph: %v", none)
	}
}

// Destination ASes for the differential tests: one per class, plus one
// the graph does not know.
const (
	transitAS    topology.ASN = 100
	contentAS    topology.ASN = 200
	enterpriseAS topology.ASN = 300
	unknownAS    topology.ASN = 400
)

var classGraph = topology.MetadataGraph([]topology.AS{
	{ASN: transitAS, Class: topology.ClassTransit},
	{ASN: contentAS, Class: topology.ClassContent},
	{ASN: enterpriseAS, Class: topology.ClassEnterprise},
})

// boundaries are instants just before day, week, month and year
// boundaries, including some before 1970; records land within hours of
// them, so cells of every granularity straddle the cut.
var boundaries = []time.Time{
	time.Date(2016, 5, 10, 23, 0, 0, 0, time.UTC),  // day
	time.Date(2016, 5, 15, 22, 0, 0, 0, time.UTC),  // Sunday: week
	time.Date(2016, 5, 31, 23, 0, 0, 0, time.UTC),  // month
	time.Date(2016, 12, 31, 22, 0, 0, 0, time.UTC), // year
	time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC), // year, epoch
	time.Date(1969, 12, 28, 23, 0, 0, 0, time.UTC), // Sunday before 1970
	time.Date(1969, 6, 30, 22, 30, 0, 0, time.UTC), // month before 1970
}

// randomRecords draws a record set that exercises every input Measure
// distinguishes: inconclusive records, known and unknown destinations of
// all three classes, few pairs (so cells repeat) and up to nine distinct
// paths, one of them empty.
func randomRecords(rng *rand.Rand, n int) []iclab.Record {
	paths := [][]topology.ASN{nil}
	for i := 0; i < 8; i++ {
		paths = append(paths, []topology.ASN{1, topology.ASN(10 + i), topology.ASN(20 + i%3)})
	}
	urls := []string{"a.com", "b.org", "c.net"}
	dsts := []topology.ASN{transitAS, contentAS, enterpriseAS, unknownAS}
	base := boundaries[rng.IntN(len(boundaries))]
	records := make([]iclab.Record, n)
	for i := range records {
		at := base.Add(time.Duration(rng.IntN(4*3600)) * time.Second)
		if rng.IntN(4) == 0 {
			at = boundaries[rng.IntN(len(boundaries))].Add(time.Duration(rng.IntN(4*3600)) * time.Second)
		}
		r := rec(topology.ASN(1+rng.IntN(2)), urls[rng.IntN(len(urls))], at, paths[rng.IntN(len(paths))])
		r.TargetASN = dsts[rng.IntN(len(dsts))]
		if rng.IntN(5) == 0 {
			r.Fail = traceroute.FailReason(1 + rng.IntN(4))
		}
		records[i] = r
	}
	return records
}

// seededRecords is randomRecords' set of n records for one seed.
func seededRecords(seed uint64, n int) []iclab.Record {
	return randomRecords(rand.New(rand.NewPCG(seed, 0xc4a2)), n)
}

// overfullCells counts the conclusive cells, over every granularity, that
// hold more than MaxBucket distinct paths: the only cells where Measure
// stops remembering new paths.
func overfullCells(records []iclab.Record) int {
	type cellKey struct {
		pair  pairKey
		slice timeslice.Key
	}
	n := 0
	for _, g := range timeslice.All {
		paths := map[cellKey]map[string]bool{}
		for i := range records {
			r := &records[i]
			if r.Fail != traceroute.OK {
				continue
			}
			k := cellKey{pairKey{r.Vantage, r.URL}, timeslice.KeyFor(g, r.At)}
			if paths[k] == nil {
				paths[k] = map[string]bool{}
			}
			paths[k][pathID(r.ASPath)] = true
		}
		for _, ps := range paths {
			if len(ps) > MaxBucket {
				n++
			}
		}
	}
	return n
}

// checkMeasure compares Measure on one random record set with the
// reference, with and without a graph, and returns the reference result.
func checkMeasure(t *testing.T, seed uint64, n int) ([]Distribution, map[topology.Class]Distribution) {
	t.Helper()
	records := seededRecords(seed, n)
	wantPeriods := referenceMeasure(records, nil)
	wantByClass := referenceByDestinationClass(records, classGraph, timeslice.Month)
	periods, byClass := Measure(records, classGraph)
	if !reflect.DeepEqual(periods, wantPeriods) {
		t.Errorf("seed %d, %d records: periods\n got %+v\nwant %+v", seed, n, periods, wantPeriods)
	}
	if !reflect.DeepEqual(byClass, wantByClass) {
		t.Errorf("seed %d, %d records: by class\n got %+v\nwant %+v", seed, n, byClass, wantByClass)
	}
	bare, none := Measure(records, nil)
	if !reflect.DeepEqual(bare, wantPeriods) || none != nil {
		t.Errorf("seed %d, %d records: without a graph got %+v, %v", seed, n, bare, none)
	}
	return wantPeriods, wantByClass
}

// TestMeasureMatchesReference holds the one-pass Measure bit-identical to
// the per-granularity reference over random record sets, and checks that
// the sets reached every case the comparison is meant to cover.
func TestMeasureMatchesReference(t *testing.T) {
	var overfull, zeroSampleClass, classes int
	for seed := uint64(1); seed <= 300; seed++ {
		n := int(seed % 97)
		_, byClass := checkMeasure(t, seed, n)
		overfull += overfullCells(seededRecords(seed, n))
		for _, d := range byClass {
			if d.Samples == 0 {
				zeroSampleClass++
			}
		}
		if len(byClass) == 3 {
			classes++
		}
	}
	if overfull == 0 || zeroSampleClass == 0 || classes == 0 {
		t.Errorf("random sets missed a case: %d cells with more than %d paths, %d classes without samples, %d sets with all classes",
			overfull, MaxBucket, zeroSampleClass, classes)
	}
}

// FuzzMeasure extends TestMeasureMatchesReference to fuzz-chosen record
// sets.
func FuzzMeasure(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(1))
	f.Add(uint64(3), uint8(40))
	f.Add(uint64(4), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		checkMeasure(t, seed, int(n))
	})
}
