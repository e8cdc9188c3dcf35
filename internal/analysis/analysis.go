package analysis

import (
	"sort"

	"churntomo/internal/anomaly"
	"churntomo/internal/censor"
	"churntomo/internal/churn"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/report"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
)

// SolvabilityRow is one group of Figure 1: the fraction of CNFs with 0, 1
// and 2+ solutions.
type SolvabilityRow struct {
	Group string
	Frac  [3]float64 // indexed by sat.Classification
	CNFs  int
}

func solvability(outcomes []tomo.Outcome, groupOf func(tomo.Outcome) (string, bool), order []string) []SolvabilityRow {
	counts := map[string]*SolvabilityRow{}
	for _, o := range outcomes {
		g, ok := groupOf(o)
		if !ok {
			continue
		}
		row := counts[g]
		if row == nil {
			row = &SolvabilityRow{Group: g}
			counts[g] = row
		}
		row.Frac[o.Class]++
		row.CNFs++
	}
	var out []SolvabilityRow
	for _, g := range order {
		row := counts[g]
		if row == nil {
			continue
		}
		for c := range row.Frac {
			row.Frac[c] /= float64(row.CNFs)
		}
		out = append(out, *row)
	}
	return out
}

// Figure1a groups CNF solvability by time granularity (day, week, month —
// the paper's Figure 1a omits year).
func Figure1a(outcomes []tomo.Outcome) []SolvabilityRow {
	return solvability(outcomes, func(o tomo.Outcome) (string, bool) {
		g := o.Inst.Key.Slice.Gran
		if g == timeslice.Year {
			return "", false
		}
		return g.String(), true
	}, []string{"day", "week", "month"})
}

// Figure1b groups CNF solvability by anomaly kind (Figure 1b's legend
// order: block, dns, rst, seq, ttl).
func Figure1b(outcomes []tomo.Outcome) []SolvabilityRow {
	return solvability(outcomes, func(o tomo.Outcome) (string, bool) {
		return o.Inst.Key.Kind.String(), true
	}, []string{"block", "dns", "rst", "seq", "ttl"})
}

// OverallSolvability returns the headline fractions across every CNF (the
// paper's "nearly 92% ... exactly one solution, less than 6% ... no
// solution").
func OverallSolvability(outcomes []tomo.Outcome) (frac [3]float64, n int) {
	for _, o := range outcomes {
		frac[o.Class]++
		n++
	}
	if n > 0 {
		for c := range frac {
			frac[c] /= float64(n)
		}
	}
	return frac, n
}

// Figure2 summarizes candidate-set reduction over multi-solution CNFs: the
// CDF of reduction percentages, the mean reduction, and the fraction of
// CNFs with no elimination at all.
type Figure2Data struct {
	CDF        []report.Point
	Mean       float64 // mean reduction fraction (paper: 95.2% of ASes)
	NoElimFrac float64 // paper: ~20% of multi-solution CNFs eliminate nothing
	Samples    int
}

// Figure2 computes the reduction CDF from multi-solution outcomes.
func Figure2(outcomes []tomo.Outcome) Figure2Data {
	var samples []float64
	noElim := 0
	for _, o := range outcomes {
		if o.Class != sat.Multiple {
			continue
		}
		f := o.ReductionFrac()
		samples = append(samples, 100*f)
		if o.Eliminated == 0 {
			noElim++
		}
	}
	d := Figure2Data{Samples: len(samples)}
	if len(samples) == 0 {
		return d
	}
	xs := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	d.CDF = report.CDFOf(samples, xs)
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	d.Mean = sum / float64(len(samples)) / 100
	d.NoElimFrac = float64(noElim) / float64(len(samples))
	return d
}

// Figure3 is churn.Measure's per-granularity distributions, re-exported
// for harness symmetry.
func Figure3(records []iclab.Record) []churn.Distribution {
	periods, _ := churn.Measure(records, nil)
	return periods
}

// Figure4Row is one granularity of the no-churn ablation: fractions of
// CNFs with 0,1,2,3,4,5+ solutions.
type Figure4Row struct {
	Gran timeslice.Granularity
	Frac [6]float64
	CNFs int
}

// Figure4 rebuilds CNFs from first-observed-path records only and counts
// models up to 5+ — the paper's demonstration that churn is what makes the
// tomography solvable.
func Figure4(records []iclab.Record, workers int) []Figure4Row {
	filtered := churn.FirstPathOnly(records)
	grans := []timeslice.Granularity{timeslice.Day, timeslice.Week, timeslice.Month}
	insts := tomo.Build(filtered, tomo.BuildConfig{Granularities: grans, Workers: workers})
	rows := map[timeslice.Granularity]*Figure4Row{}
	for _, in := range insts {
		row := rows[in.Key.Slice.Gran]
		if row == nil {
			row = &Figure4Row{Gran: in.Key.Slice.Gran}
			rows[in.Key.Slice.Gran] = row
		}
		n := sat.CountModels(in.CNF, 5)
		row.Frac[n]++
		row.CNFs++
	}
	var out []Figure4Row
	for _, g := range grans {
		row := rows[g]
		if row == nil {
			continue
		}
		for i := range row.Frac {
			row.Frac[i] /= float64(row.CNFs)
		}
		out = append(out, *row)
	}
	return out
}

// Table2Row is one region of Table 2: a country, its identified censoring
// ASes, and the union of their anomaly kinds.
type Table2Row struct {
	Country string
	ASNs    []topology.ASN
	Kinds   anomaly.Set
}

// Table2 groups identified censors by country, sorted by censor count.
func Table2(censors map[topology.ASN]*tomo.IdentifiedCensor, g *topology.Graph, topN int) []Table2Row {
	byCountry := map[string]*Table2Row{}
	for asn, c := range censors {
		country := g.CountryOf(asn)
		if country == "" {
			country = "??"
		}
		row := byCountry[country]
		if row == nil {
			row = &Table2Row{Country: country}
			byCountry[country] = row
		}
		row.ASNs = append(row.ASNs, asn)
		row.Kinds |= c.Kinds
	}
	out := make([]Table2Row, 0, len(byCountry))
	for _, row := range byCountry {
		sort.Slice(row.ASNs, func(i, j int) bool { return row.ASNs[i] < row.ASNs[j] })
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ASNs) != len(out[j].ASNs) {
			return len(out[i].ASNs) > len(out[j].ASNs)
		}
		return out[i].Country < out[j].Country
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// CensorCountries counts the countries hosting identified censors (the
// paper's "65 censoring ASes located in 30 different countries").
func CensorCountries(censors map[topology.ASN]*tomo.IdentifiedCensor, g *topology.Graph) int {
	set := map[string]bool{}
	for asn := range censors {
		if c := g.CountryOf(asn); c != "" {
			set[c] = true
		}
	}
	return len(set)
}

// CategoryCensorship counts identified (censor, URL) findings per URL
// category — the paper's McAfee-categorization analysis (Online Shopping
// and Classifieds lead).
func CategoryCensorship(censors map[topology.ASN]*tomo.IdentifiedCensor, urlCat map[string]webcat.Category) map[webcat.Category]int {
	out := map[webcat.Category]int{}
	for _, c := range censors {
		for url := range c.URLs {
			if cat, ok := urlCat[url]; ok {
				out[cat]++
			}
		}
	}
	return out
}

// Validation compares identified censors against the generator's ground
// truth — the check the paper could not run against the real Internet.
type Validation struct {
	TruePositives  int
	FalsePositives int
	Missed         int
	Precision      float64
	Recall         float64
	Spurious       []topology.ASN
}

// Validate scores identified censors against the registry. Recall is over
// censors that were actually exercised (observable recall requires a censor
// to sit on some measured path; the registry may contain censors no
// measurement ever crossed, so full-registry recall is also reported by the
// caller if needed).
func Validate(censors map[topology.ASN]*tomo.IdentifiedCensor, reg *censor.Registry) Validation {
	v := Validation{}
	for asn := range censors {
		if _, ok := reg.Policy(asn); ok {
			v.TruePositives++
		} else {
			v.FalsePositives++
			v.Spurious = append(v.Spurious, asn)
		}
	}
	sort.Slice(v.Spurious, func(i, j int) bool { return v.Spurious[i] < v.Spurious[j] })
	v.Missed = reg.Len() - v.TruePositives
	if v.TruePositives+v.FalsePositives > 0 {
		v.Precision = float64(v.TruePositives) / float64(v.TruePositives+v.FalsePositives)
	}
	if reg.Len() > 0 {
		v.Recall = float64(v.TruePositives) / float64(reg.Len())
	}
	return v
}

// Table3 re-exports the leakage ranking for harness symmetry.
func Table3(a *leakage.Analysis, g *topology.Graph, n int) []leakage.TopLeaker {
	return a.TopLeakers(g, n)
}
