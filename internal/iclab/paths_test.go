package iclab

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"

	"churntomo/internal/anomaly"
	"churntomo/internal/topology"
)

// TestRecordSize pins the record's size: PathID sits in the padding after
// Vantage, so numbering costs a table no memory.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Record{}); size != 176 {
		t.Errorf("a Record takes %d bytes, want 176", size)
	}
	if off := unsafe.Offsetof(Record{}.PathID); off != 4 {
		t.Errorf("PathID at offset %d, want 4", off)
	}
}

// referenceIDs numbers paths by value in first-seen order, with a map
// keyed by the path's printed form, and returns the IDs and their count.
func referenceIDs(batches ...[]Record) ([]int32, int) {
	ids := map[string]int32{}
	var out []int32
	for _, b := range batches {
		for _, r := range b {
			k := fmt.Sprint(r.ASPath)
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids) + 1)
				ids[k] = id
			}
			out = append(out, id)
		}
	}
	return out, len(ids)
}

// TestNumberPaths pins the numbering contract on hand-built batches: IDs
// in first-seen table order across batches, nil and empty paths one
// value, earlier IDs overwritten, and every repeat of a non-empty path
// pointed at its first record's array.
func TestNumberPaths(t *testing.T) {
	p := func(asns ...topology.ASN) []topology.ASN { return asns }
	a, b := p(1, 2, 3), p(1, 2)
	batches := [][]Record{
		{{ASPath: a, PathID: 9}, {ASPath: nil}, {ASPath: p(1, 2, 3)}},
		nil,
		{{ASPath: b}, {ASPath: []topology.ASN{}}, {ASPath: p(1, 2)}, {ASPath: p(3, 2, 1)}},
	}
	if n := NumberPaths(batches...); n != 4 {
		t.Fatalf("NumberPaths = %d IDs, want 4", n)
	}
	var got []int32
	for _, batch := range batches {
		for _, r := range batch {
			got = append(got, r.PathID)
		}
	}
	if want := []int32{1, 2, 1, 3, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs %v, want %v", got, want)
	}
	if &batches[0][2].ASPath[0] != &a[0] || &batches[2][2].ASPath[0] != &b[0] {
		t.Error("a repeated path does not share its first record's array")
	}
	if batches[0][1].ASPath != nil || batches[2][1].ASPath == nil {
		t.Error("an empty path lost its own nil or empty slice")
	}
}

// TestNumberPathsMatchesReference holds NumberPaths to referenceIDs on
// random batches whose paths repeat, differ only in a high byte, are
// prefixes of one another or are empty; enough distinct paths pass
// through the numbering to grow its index and key lists several times.
func TestNumberPathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0x9a7))
	asns := []topology.ASN{1, 2, 256, 1 << 24, 1<<32 - 1}
	for round := 0; round < 20; round++ {
		var batches [][]Record
		for range 1 + rng.IntN(4) {
			batch := make([]Record, rng.IntN(3000))
			for i := range batch {
				if rng.IntN(3) == 0 && i > 0 {
					batch[i].ASPath = append([]topology.ASN(nil), batch[rng.IntN(i)].ASPath...)
					continue
				}
				for range rng.IntN(7) {
					batch[i].ASPath = append(batch[i].ASPath, asns[rng.IntN(len(asns))]+topology.ASN(rng.IntN(40)))
				}
			}
			batches = append(batches, batch)
		}
		want, wantN := referenceIDs(batches...)
		n := NumberPaths(batches...)
		var got []int32
		for _, b := range batches {
			for _, r := range b {
				got = append(got, r.PathID)
			}
		}
		if !reflect.DeepEqual(got, want) || n != wantN {
			t.Fatalf("round %d: %d IDs differ from the value-keyed reference's %d", round, n, wantN)
		}
	}
}

// referenceTable1 counts Table 1's sets with one probe of each set per
// record.
func referenceTable1(s *Scenario, records []Record) Table1 {
	t := Table1{Period: ComputeTable1(s, nil).Period, Measurements: len(records)}
	urls, countries := map[string]bool{}, map[string]bool{}
	vantages, dests := map[topology.ASN]bool{}, map[topology.ASN]bool{}
	for _, r := range records {
		urls[r.URL], countries[r.VantageCountry] = true, true
		vantages[r.Vantage], dests[r.TargetASN] = true, true
		for _, k := range anomaly.Kinds {
			if r.Anomalies.Has(k) {
				t.Anomalies[k]++
			}
		}
	}
	t.UniqueURLs, t.VantageASes = len(urls), len(vantages)
	t.DestinationASes, t.Countries = len(dests), len(countries)
	return t
}

// TestComputeTable1MatchesReference holds ComputeTable1, which probes its
// sets only where a value changes or misses its vantage cache, to
// referenceTable1 on records in no particular order: hundreds of
// vantages, so the cache's slots collide, vantages seen under several
// countries, and anomaly bits beyond the five kinds.
func TestComputeTable1MatchesReference(t *testing.T) {
	s := &Scenario{Start: start, End: start.AddDate(0, 1, 0)}
	rng := rand.New(rand.NewPCG(5, 0x7ab1e))
	for round := 0; round < 50; round++ {
		records := make([]Record, rng.IntN(2000))
		nv := 1 + rng.IntN(400)
		for i := range records {
			r := &records[i]
			r.Vantage = topology.ASN(64500 + rng.IntN(nv))
			r.VantageCountry = fmt.Sprintf("C%d", (int(r.Vantage)+rng.IntN(2)*rng.IntN(3))%7)
			r.URL = fmt.Sprintf("u%d.example", rng.IntN(30))
			r.TargetASN = topology.ASN(rng.IntN(20))
			r.Anomalies = anomaly.Set(rng.IntN(256))
			if i > 0 && rng.IntN(2) == 0 {
				r.URL, r.TargetASN = records[i-1].URL, records[i-1].TargetASN
			}
		}
		if got, want := ComputeTable1(s, records), referenceTable1(s, records); got != want {
			t.Fatalf("round %d: got %+v, want %+v", round, got, want)
		}
	}
}
