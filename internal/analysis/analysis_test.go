package analysis

import (
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

var t0 = time.Date(2016, 5, 10, 8, 0, 0, 0, time.UTC)

func rec(v topology.ASN, url string, at time.Time, path []topology.ASN, kinds anomaly.Set) iclab.Record {
	return iclab.Record{Vantage: v, URL: url, At: at, ASPath: path, Anomalies: kinds, Fail: traceroute.OK}
}

func TestFigure4Collapses(t *testing.T) {
	// With churn: day 1 path A censored, path B clean → unique.
	// Without churn (first path only): the clean alternate disappears,
	// leaving an under-constrained CNF.
	records := []iclab.Record{
		rec(1, "a.com", t0, []topology.ASN{10, 20, 30}, anomaly.MakeSet(anomaly.TTL)),
		rec(1, "a.com", t0.Add(time.Hour), []topology.ASN{10, 25, 30}, 0),
		rec(2, "a.com", t0.Add(time.Hour), []topology.ASN{11, 30}, 0),
	}
	rows := Figure4(records, 1)
	if len(rows) == 0 {
		t.Fatal("no Figure4 rows")
	}
	day := rows[0]
	if day.Gran != timeslice.Day || day.CNFs != 1 {
		t.Fatalf("day row: %+v", day)
	}
	// Ablated CNF: positive (10,20,30), negative (11,30): vars 10,20 free
	// subject to the clause => 3 models.
	if day.Frac[3] != 1 {
		t.Errorf("ablated CNF buckets: %+v, want all mass at 3", day.Frac)
	}
}
