package leakage

import (
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

var t0 = time.Date(2016, 5, 10, 6, 0, 0, 0, time.UTC)

// fixtureGraph builds a topology and returns ASNs chosen from distinct
// countries for hand-built paths.
func fixtureGraph(t *testing.T) (*topology.Graph, map[string]topology.ASN) {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 3, ASes: 300, Countries: 20})
	if err != nil {
		t.Fatal(err)
	}
	byCountry := map[string]topology.ASN{}
	for i := range g.ASes {
		c := g.ASes[i].Country
		if _, ok := byCountry[c]; !ok {
			byCountry[c] = g.ASes[i].ASN
		}
	}
	return g, byCountry
}

// secondIn returns another AS in the given country, distinct from exclude.
func secondIn(g *topology.Graph, country string, exclude topology.ASN) topology.ASN {
	for i := range g.ASes {
		if g.ASes[i].Country == country && g.ASes[i].ASN != exclude {
			return g.ASes[i].ASN
		}
	}
	return 0
}

func rec(v topology.ASN, url string, at time.Time, path []topology.ASN, kinds anomaly.Set) iclab.Record {
	return iclab.Record{Vantage: v, URL: url, At: at, ASPath: path, Anomalies: kinds, Fail: traceroute.OK}
}

func TestAnalyzeBasicLeak(t *testing.T) {
	g, byCountry := fixtureGraph(t)
	vantageDE := byCountry["DE"]
	transitCN := byCountry["CN"]
	destUS := byCountry["US"]
	midDE := secondIn(g, "DE", vantageDE)
	if midDE == 0 {
		t.Fatal("need two DE ASes")
	}

	// DE vantage -> DE transit -> CN censor -> US dest, censored; churned
	// clean paths pin the censor uniquely.
	records := []iclab.Record{
		rec(vantageDE, "u.com", t0, []topology.ASN{vantageDE, midDE, transitCN, destUS}, anomaly.MakeSet(anomaly.RST)),
		rec(vantageDE, "u.com", t0.Add(time.Hour), []topology.ASN{vantageDE, midDE, destUS}, 0),
	}
	iclab.NumberPaths(records)
	insts := tomo.Build(records, tomo.BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.RST},
	})
	outcomes := tomo.SolveAll(insts)
	a := Analyze(outcomes, g)

	leak, ok := a.ByCensor[transitCN]
	if !ok {
		t.Fatalf("CN censor has no leak entry: %+v", a.ByCensor)
	}
	if !leak.VictimASes[vantageDE] || !leak.VictimASes[midDE] {
		t.Errorf("upstream DE ASes not victims: %v", leak.VictimASes)
	}
	if leak.VictimASes[destUS] {
		t.Error("downstream AS counted as victim")
	}
	if !leak.VictimCountries["DE"] {
		t.Errorf("DE not a victim country: %v", leak.VictimCountries)
	}
	if a.LeakToOtherASes() != 1 || a.LeakToOtherCountries() != 1 {
		t.Errorf("leak counts: AS=%d country=%d", a.LeakToOtherASes(), a.LeakToOtherCountries())
	}
	if w := a.Flow[FlowEdge{"CN", "DE"}]; w != 2 {
		t.Errorf("flow CN->DE = %d, want 2 (two victim ASes)", w)
	}
}

func TestAnalyzeDomesticCensorNoCountryLeak(t *testing.T) {
	g, byCountry := fixtureGraph(t)
	vantagePL := byCountry["PL"]
	censorPL := secondIn(g, "PL", vantagePL)
	destUS := byCountry["US"]
	if censorPL == 0 {
		t.Fatal("need two PL ASes")
	}
	records := []iclab.Record{
		rec(vantagePL, "u.com", t0, []topology.ASN{vantagePL, censorPL, destUS}, anomaly.MakeSet(anomaly.DNS)),
		rec(vantagePL, "u.com", t0.Add(time.Hour), []topology.ASN{vantagePL, destUS}, 0),
	}
	iclab.NumberPaths(records)
	insts := tomo.Build(records, tomo.BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.DNS},
	})
	a := Analyze(tomo.SolveAll(insts), g)
	leak, ok := a.ByCensor[censorPL]
	if !ok {
		t.Fatal("domestic censor not recorded (it still leaks to its upstream AS)")
	}
	if len(leak.VictimCountries) != 0 {
		t.Errorf("domestic censorship should not cross countries: %v", leak.VictimCountries)
	}
	if a.LeakToOtherASes() != 1 || a.LeakToOtherCountries() != 0 {
		t.Errorf("counts: AS=%d country=%d", a.LeakToOtherASes(), a.LeakToOtherCountries())
	}
}

func TestAnalyzeIgnoresNonUnique(t *testing.T) {
	g, byCountry := fixtureGraph(t)
	v := byCountry["FR"]
	c1 := byCountry["CN"]
	dest := byCountry["US"]
	// Single censored path, no clean observations: multiple solutions.
	records := []iclab.Record{
		rec(v, "u.com", t0, []topology.ASN{v, c1, dest}, anomaly.MakeSet(anomaly.TTL)),
	}
	iclab.NumberPaths(records)
	insts := tomo.Build(records, tomo.BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.TTL},
	})
	a := Analyze(tomo.SolveAll(insts), g)
	if len(a.ByCensor) != 0 {
		t.Errorf("multi-solution CNF leaked: %+v", a.ByCensor)
	}
}

func TestTopLeakersOrderingAndFlow(t *testing.T) {
	g, byCountry := fixtureGraph(t)
	destUS := byCountry["US"]
	censorCN := byCountry["CN"]
	censorRU := byCountry["RU"]

	var records []iclab.Record
	// CN censor leaks to three countries; RU censor to one.
	i := 0
	for _, vc := range []string{"DE", "FR", "GB"} {
		v := byCountry[vc]
		records = append(records,
			rec(v, "u.com", t0.Add(time.Duration(i)*time.Minute), []topology.ASN{v, censorCN, destUS}, anomaly.MakeSet(anomaly.SEQ)),
			rec(v, "u.com", t0.Add(time.Duration(i+1)*time.Minute), []topology.ASN{v, destUS}, 0))
		i += 2
	}
	vPL := byCountry["PL"]
	records = append(records,
		rec(vPL, "v.com", t0, []topology.ASN{vPL, censorRU, destUS}, anomaly.MakeSet(anomaly.SEQ)),
		rec(vPL, "v.com", t0.Add(time.Minute), []topology.ASN{vPL, destUS}, 0))

	iclab.NumberPaths(records)
	insts := tomo.Build(records, tomo.BuildConfig{
		Granularities: []timeslice.Granularity{timeslice.Day},
		Kinds:         []anomaly.Kind{anomaly.SEQ},
	})
	a := Analyze(tomo.SolveAll(insts), g)

	top := a.TopLeakers(g)
	if len(top) != 2 {
		t.Fatalf("top leakers: %+v", top)
	}
	if top[0].ASN != censorCN || top[0].LeakedCountries != 3 {
		t.Errorf("top leaker %+v, want CN censor with 3 countries", top[0])
	}
	if top[1].ASN != censorRU || top[1].LeakedCountries != 1 {
		t.Errorf("second leaker %+v", top[1])
	}
	if top[0].Name == "" {
		t.Error("leaker name missing")
	}
	// A top-n cut is a slice of the ranking.
	if got := top[:1]; got[0].ASN != censorCN {
		t.Errorf("top-1 cut %+v, want the CN censor", got)
	}

	edges := a.FlowEdges()
	if len(edges) != 4 {
		t.Fatalf("flow edges %+v", edges)
	}
	for _, e := range edges {
		if e.Edge.From != "CN" && e.Edge.From != "RU" {
			t.Errorf("unexpected flow source %v", e.Edge)
		}
	}
	// RegionalFrac excluding CN: RU->PL is Europe->Europe, so 1.0.
	if frac := a.RegionalFrac(g, "CN"); frac != 1.0 {
		t.Errorf("RegionalFrac(excl CN) = %.2f, want 1.0", frac)
	}
}
