package analysis

import (
	"churntomo/internal/churn"
	"churntomo/internal/iclab"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
)

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
