package tomo

import (
	"math"
	"testing"

	"churntomo/internal/sat"
)

// TestReductionFracEdgeCases pins ReductionFrac's definition —
// Eliminated / TotalVars in [0, 1] — across its edge cases, including the
// zero-candidate CNF (0, not NaN) and full reduction.
func TestReductionFracEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		out  Outcome
		want float64
	}{
		{"zero candidates", Outcome{Class: sat.Multiple, Eliminated: 0, TotalVars: 0}, 0},
		{"no elimination", Outcome{Class: sat.Multiple, Eliminated: 0, TotalVars: 7}, 0},
		{"partial", Outcome{Class: sat.Multiple, Eliminated: 3, TotalVars: 4}, 0.75},
		{"full reduction", Outcome{Class: sat.Multiple, Eliminated: 5, TotalVars: 5}, 1},
		{"single candidate eliminated", Outcome{Class: sat.Multiple, Eliminated: 1, TotalVars: 1}, 1},
		{"unsat eliminates nothing", Outcome{Class: sat.Unsat, TotalVars: 9}, 0},
		{"unique eliminates nothing", Outcome{Class: sat.Unique, TotalVars: 9}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.out.ReductionFrac()
			if math.IsNaN(got) {
				t.Fatalf("ReductionFrac returned NaN")
			}
			if got != tc.want {
				t.Fatalf("ReductionFrac() = %v, want %v", got, tc.want)
			}
			if got < 0 || got > 1 {
				t.Fatalf("ReductionFrac() = %v outside [0,1]", got)
			}
		})
	}
}

// TestSolveNeverSetsEliminatedOutsideMultiple pins the population rule
// ReductionFrac's doc relies on: Unsat and Unique outcomes carry
// Eliminated == 0.
func TestSolveNeverSetsEliminatedOutsideMultiple(t *testing.T) {
	// Unique: one censored path of one AS.
	uniq := instanceOf(1, []bool{false, false}, [][]int{{1}})
	if o := Solve(uniq); o.Class != sat.Unique || o.Eliminated != 0 {
		t.Fatalf("unique outcome: %+v", o)
	}
	// Unsat: the same AS censored and on a clean path.
	uns := instanceOf(1, []bool{false, true}, [][]int{{1}})
	if o := Solve(uns); o.Class != sat.Unsat || o.Eliminated != 0 {
		t.Fatalf("unsat outcome: %+v", o)
	}
}
