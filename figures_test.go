package churntomo

import (
	"context"
	"reflect"
	"testing"
	"time"

	"churntomo/internal/iclab"
	"churntomo/internal/traceroute"
)

var figureT0 = time.Date(2016, 5, 10, 8, 0, 0, 0, time.UTC)

func TestFigure4Collapses(t *testing.T) {
	// With churn: day 1 path A censored, path B clean → unique.
	// Without churn (first path only): the clean alternate disappears,
	// leaving an under-constrained CNF.
	rec := func(v ASN, at time.Time, path []ASN, kinds AnomalySet) iclab.Record {
		return iclab.Record{Vantage: v, URL: "a.com", At: at, ASPath: path, Anomalies: kinds, Fail: traceroute.OK}
	}
	records := []iclab.Record{
		rec(1, figureT0, []ASN{10, 20, 30}, AnomalySet(0).Add(AnomalyTTL)),
		rec(1, figureT0.Add(time.Hour), []ASN{10, 25, 30}, 0),
		rec(2, figureT0.Add(time.Hour), []ASN{11, 30}, 0),
	}
	iclab.NumberPaths(records)
	rows := ablationOf(&cell{cfg: Config{Workers: 1}, records: records})
	if len(rows) == 0 {
		t.Fatal("no Figure 4 rows")
	}
	day := rows[0]
	if day.Period != "day" || day.CNFs != 1 {
		t.Fatalf("day row: %+v", day)
	}
	// Ablated CNF: positive (10,20,30), negative (11,30): vars 10,20 free
	// subject to the clause => 3 models.
	if day.Frac[3] != 1 {
		t.Errorf("ablated CNF buckets: %+v, want all mass at 3", day.Frac)
	}
}

// figure1Result replays a mixed bag of one-day measurements as an
// in-memory dataset: one unique, one multiple and one unsat CNF per
// granularity. Figure 1's split is read off the public Summary.
func figure1Result(t *testing.T) *Result {
	t.Helper()
	m := func(v ASN, url string, at time.Time, path []ASN, kind ...AnomalyKind) Measurement {
		var kinds AnomalySet
		for _, k := range kind {
			kinds = kinds.Add(k)
		}
		return Measurement{Vantage: v, TargetIdx: -1, URL: url, At: at, ASPath: path, Anomalies: kinds}
	}
	ds := &Dataset{
		Info: SourceInfo{Start: time.Date(2016, 5, 10, 0, 0, 0, 0, time.UTC), Days: 1},
		Days: [][]Measurement{{
			// Unique: censor 20 pinned by churned negation.
			m(1, "a.com", figureT0, []ASN{10, 20, 30}, AnomalyTTL),
			m(1, "a.com", figureT0.Add(time.Hour), []ASN{10, 25, 30}),
			// Multiple: under-constrained RST positive.
			m(2, "b.com", figureT0, []ASN{11, 21, 31}, AnomalyRST),
			m(3, "b.com", figureT0, []ASN{12, 31}),
			// Unsat: conflicting SEQ observations of one path.
			m(4, "c.com", figureT0, []ASN{13, 23}, AnomalySEQ),
			m(4, "c.com", figureT0.Add(time.Hour), []ASN{13, 23}),
		}},
	}
	exp, err := New(WithSource(ds))
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
	s := figure1Result(t).Summary
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
	var wantGran []ClassCounts
	for _, g := range []string{"day", "week", "month", "year"} {
		wantGran = append(wantGran, ClassCounts{Group: g, CNFs: 3, Unsat: 1, Unique: 1, Multiple: 1})
	}
	if !reflect.DeepEqual(s.ByGranularity, wantGran) {
		t.Errorf("ByGranularity = %+v, want %+v", s.ByGranularity, wantGran)
	}
	// Figure 1b's rows: each kind owns one CNF per granularity, all in
	// one class; block and dns saw no anomaly and are left out.
	wantKind := []ClassCounts{
		{Group: "rst", CNFs: 4, Multiple: 4},
		{Group: "seq", CNFs: 4, Unsat: 4},
		{Group: "ttl", CNFs: 4, Unique: 4},
	}
	if !reflect.DeepEqual(s.ByKind, wantKind) {
		t.Errorf("ByKind = %+v, want %+v", s.ByKind, wantKind)
	}
}

func TestSolvabilityClassesSumToOne(t *testing.T) {
	s := figure1Result(t).Summary
	for _, rows := range [][]ClassCounts{s.ByGranularity, s.ByKind} {
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
