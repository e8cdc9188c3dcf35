package churntomo

// The table-driven preset matrix: every preset registered at init, at two
// seeds, through the full public pipeline. Three invariants per (preset,
// seed) cell: the run succeeds, the same seed reproduces a byte-identical
// dataset, and a cumulative streaming replay's final identifications
// equal batch's. The golden suite (golden_eval_test.go) pins WHAT each
// preset finds at one seed; this matrix pins that every preset behaves
// lawfully at any seed.

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// datasetFingerprint serializes the measured records into a canonical
// byte string — "byte-identical dataset" is compared literally.
func datasetFingerprint(r *Result) string {
	if r.cell == nil || r.cell.records == nil {
		return "<no dataset>"
	}
	var b strings.Builder
	for i := range r.cell.records {
		rec := &r.cell.records[i]
		fmt.Fprintf(&b, "%d %v %s %v %v path=%v true=%v unreach=%v\n",
			i, rec.Vantage, rec.URL, rec.At.Unix(), rec.Anomalies,
			rec.ASPath, rec.TruePath, rec.Unreachable)
	}
	return b.String()
}

func TestPresetMatrixTwoSeedsDeterministicStreamingEqualsBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full preset x seed matrix in -short mode")
	}
	for _, info := range builtinScenarios {
		preset := info.Name
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", preset, seed), func(t *testing.T) {
				t.Parallel()
				run := func(opts ...Option) *Result {
					t.Helper()
					opts = append([]Option{WithConfig(smokeConfig()), WithScenario(preset), WithSeed(seed)}, opts...)
					exp, err := New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					res, err := exp.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a, b := run(), run()
				if fa, fb := datasetFingerprint(a), datasetFingerprint(b); fa != fb {
					t.Fatal("same preset + seed produced different datasets")
				}
				if censorFingerprint(a.Identified) != censorFingerprint(b.Identified) {
					t.Fatal("same preset + seed produced different identifications")
				}
				if a.Summary.Measurements == 0 || a.Summary.CNFs == 0 {
					t.Fatalf("degenerate run: %+v", a.Summary)
				}
				s := run(WithWindow(0))
				if got, want := censorFingerprint(s.Identified), censorFingerprint(a.Identified); got != want {
					t.Fatalf("streaming final window differs from batch:\n--- stream ---\n%s--- batch ---\n%s", got, want)
				}
			})
		}
	}
}
