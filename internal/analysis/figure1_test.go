package analysis_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"churntomo"
)

// Figure 1's solvability split is counted by the root package's Summary
// (ByGranularity, ByKind), not by this package, so these checks go
// through the public surface: the mixed fixture below is replayed as an
// in-memory dataset and the split is read off the Result.

// fixtureResult replays a mixed bag of one-day measurements: one unique,
// one multiple and one unsat CNF per granularity.
func fixtureResult(t *testing.T) *churntomo.Result {
	t.Helper()
	t0 := time.Date(2016, 5, 10, 8, 0, 0, 0, time.UTC)
	m := func(v churntomo.ASN, url string, at time.Time, path []churntomo.ASN, kind ...churntomo.AnomalyKind) churntomo.Measurement {
		var kinds churntomo.AnomalySet
		for _, k := range kind {
			kinds = kinds.Add(k)
		}
		return churntomo.Measurement{Vantage: v, TargetIdx: -1, URL: url, At: at, ASPath: path, Anomalies: kinds}
	}
	ds := &churntomo.Dataset{
		Info: churntomo.SourceInfo{Start: time.Date(2016, 5, 10, 0, 0, 0, 0, time.UTC), Days: 1},
		Days: [][]churntomo.Measurement{{
			// Unique: censor 20 pinned by churned negation.
			m(1, "a.com", t0, []churntomo.ASN{10, 20, 30}, churntomo.AnomalyTTL),
			m(1, "a.com", t0.Add(time.Hour), []churntomo.ASN{10, 25, 30}),
			// Multiple: under-constrained RST positive.
			m(2, "b.com", t0, []churntomo.ASN{11, 21, 31}, churntomo.AnomalyRST),
			m(3, "b.com", t0, []churntomo.ASN{12, 31}),
			// Unsat: conflicting SEQ observations of one path.
			m(4, "c.com", t0, []churntomo.ASN{13, 23}, churntomo.AnomalySEQ),
			m(4, "c.com", t0.Add(time.Hour), []churntomo.ASN{13, 23}),
		}},
	}
	exp, err := churntomo.New(churntomo.WithSource(ds))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOverallAndFigure1(t *testing.T) {
	s := fixtureResult(t).Summary
	// One CNF per class in each of the four granularities.
	if s.CNFs != 12 {
		t.Fatalf("CNFs = %d, want 12", s.CNFs)
	}
	for _, n := range []int{s.UnsatCNFs, s.UniqueCNFs, s.MultipleCNFs} {
		if f := float64(n) / float64(s.CNFs); f != 1.0/3 {
			t.Errorf("overall split %d/%d/%d of %d, want thirds", s.UnsatCNFs, s.UniqueCNFs, s.MultipleCNFs, s.CNFs)
		}
	}
	// Figure 1a's rows (churnlab drops year when it prints them).
	var wantGran []churntomo.ClassCounts
	for _, g := range []string{"day", "week", "month", "year"} {
		wantGran = append(wantGran, churntomo.ClassCounts{Group: g, CNFs: 3, Unsat: 1, Unique: 1, Multiple: 1})
	}
	if !reflect.DeepEqual(s.ByGranularity, wantGran) {
		t.Errorf("ByGranularity = %+v, want %+v", s.ByGranularity, wantGran)
	}
	// Figure 1b's rows: each kind owns one CNF per granularity, all in
	// one class; block and dns saw no anomaly and are left out.
	wantKind := []churntomo.ClassCounts{
		{Group: "rst", CNFs: 4, Multiple: 4},
		{Group: "seq", CNFs: 4, Unsat: 4},
		{Group: "ttl", CNFs: 4, Unique: 4},
	}
	if !reflect.DeepEqual(s.ByKind, wantKind) {
		t.Errorf("ByKind = %+v, want %+v", s.ByKind, wantKind)
	}
}

func TestSolvabilityClassesSumToOne(t *testing.T) {
	s := fixtureResult(t).Summary
	for _, rows := range [][]churntomo.ClassCounts{s.ByGranularity, s.ByKind} {
		if len(rows) == 0 {
			t.Fatal("no Figure 1 rows")
		}
		for _, r := range rows {
			n := float64(r.CNFs)
			sum := float64(r.Unsat)/n + float64(r.Unique)/n + float64(r.Multiple)/n
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("row %s fractions sum to %.3f", r.Group, sum)
			}
		}
	}
}
