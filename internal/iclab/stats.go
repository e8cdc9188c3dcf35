package iclab

import (
	"fmt"
	"math/bits"

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
// Records come grouped by URL, so the URL and destination sets are probed
// only where a record's value differs from the one before. Within a URL
// the fleet's vantages take turns, so a vantage and its country are
// probed only when they miss a small cache of the pairs already counted.
func ComputeTable1(s *Scenario, records []Record) Table1 {
	t := Table1{
		Period:       fmt.Sprintf("%s ~ %s", s.Start.Format("2006-01"), s.End.Format("2006-01")),
		Measurements: len(records),
	}
	urls := map[string]bool{}
	vantages := map[topology.ASN]bool{}
	dests := map[topology.ASN]bool{}
	countries := map[string]bool{}
	// counted caches counted (vantage, country) pairs, one per slot,
	// placed by a multiplicative hash of the vantage.
	var counted [128]struct {
		ok      bool
		vantage topology.ASN
		country string
	}
	for i := range records {
		r := &records[i]
		if i == 0 || r.URL != records[i-1].URL {
			urls[r.URL] = true
		}
		if i == 0 || r.TargetASN != records[i-1].TargetASN {
			dests[r.TargetASN] = true
		}
		if c := &counted[uint32(r.Vantage)*0x9e3779b1>>25]; !c.ok || c.vantage != r.Vantage || c.country != r.VantageCountry {
			vantages[r.Vantage] = true
			countries[r.VantageCountry] = true
			c.ok, c.vantage, c.country = true, r.Vantage, r.VantageCountry
		}
		for k := r.Anomalies & anomaly.AllKinds; k != 0; k &= k - 1 {
			t.Anomalies[bits.TrailingZeros8(uint8(k))]++
		}
	}
	t.UniqueURLs = len(urls)
	t.VantageASes = len(vantages)
	t.DestinationASes = len(dests)
	t.Countries = len(countries)
	return t
}
