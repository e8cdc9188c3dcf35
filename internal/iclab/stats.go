package iclab

import (
	"fmt"

	"churntomo/internal/anomaly"
	"churntomo/internal/topology"
)

// Table1 summarizes a run's records the way the paper's Table 1 does.
type Table1 struct {
	Period          string
	UniqueURLs      int
	VantageASes     int
	DestinationASes int
	Countries       int
	Measurements    int

	// Anomalies counts measurements flagged per kind (a measurement can
	// contribute to several kinds).
	Anomalies [anomaly.NumKinds]int
}

// ComputeTable1 derives the summary of records measured over s's period.
func ComputeTable1(s *Scenario, records []Record) Table1 {
	t := Table1{
		Period: fmt.Sprintf("%s ~ %s", s.Start.Format("2006-01"), s.End.Format("2006-01")),
	}
	urls := map[string]bool{}
	vantages := map[topology.ASN]bool{}
	dests := map[topology.ASN]bool{}
	countries := map[string]bool{}
	for i := range records {
		r := &records[i]
		t.Measurements++
		urls[r.URL] = true
		vantages[r.Vantage] = true
		dests[r.TargetASN] = true
		countries[r.VantageCountry] = true
		for _, k := range anomaly.Kinds {
			if r.Anomalies.Has(k) {
				t.Anomalies[k]++
			}
		}
	}
	t.UniqueURLs = len(urls)
	t.VantageASes = len(vantages)
	t.DestinationASes = len(dests)
	t.Countries = len(countries)
	return t
}
