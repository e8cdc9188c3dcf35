package churntomo

// The golden expected-outcome suite: every preset in the catalog, batch
// and streaming, scored against ground truth and pinned to a checked-in
// expectation (testdata/golden_eval.json). The identified-censor sets
// are exact — the pipeline is deterministic at a pinned seed — and the
// precision/recall bounds are floors, so the suite fails when a change
// degrades localization accuracy anywhere in the catalog, not only when
// it crashes. Regenerate after an intentional behavior change with
//
//	go test -run TestGoldenEvaluation -update-golden .
//
// and review the diff like any other code change.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_eval.json with the outcomes observed in this run")

const goldenEvalPath = "testdata/golden_eval.json"

// goldenConfig is the pinned-world configuration the expectations are
// recorded under: large enough that every preset identifies at least one
// censor, small enough that the 10x2 suite stays in test-suite budget.
func goldenConfig() Config {
	return Config{
		Seed: 1, ASes: 140, Countries: 16,
		Vantages: 12, URLs: 16, Days: 30, URLsPerDay: 6, RepeatsPerDay: 2,
	}
}

// goldenOutcome is one mode's pinned expectation.
type goldenOutcome struct {
	// Censors is the exact identified set at the pinned seed, ascending.
	Censors []uint32 `json:"censors"`
	// TrueCensors sizes the ground-truth registry the rates are against.
	TrueCensors int `json:"trueCensors"`
	// MinPrecision/MinRecall floor the evaluation; the recorded values
	// are the ones observed when the expectation was last regenerated.
	MinPrecision float64 `json:"minPrecision"`
	MinRecall    float64 `json:"minRecall"`
}

// goldenEntry is one preset's expectation across both execution modes.
type goldenEntry struct {
	Preset    string        `json:"preset"`
	Batch     goldenOutcome `json:"batch"`
	Streaming goldenOutcome `json:"streaming"`
}

// observeGolden runs one preset in one mode and reduces the result to a
// goldenOutcome.
func observeGolden(t *testing.T, preset string, streaming bool) (goldenOutcome, *Result) {
	t.Helper()
	opts := []Option{WithConfig(goldenConfig()), WithScenario(preset)}
	if streaming {
		// Cumulative window, 5-day stride: the final window covers the
		// whole run, so the set must equal batch's.
		opts = append(opts, WithWindow(0), WithStride(5))
	}
	exp, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Evaluation
	if ev == nil {
		t.Fatal("Result.Evaluation is nil for a synthesized run")
	}
	out := goldenOutcome{
		TrueCensors:  ev.TrueCensors,
		MinPrecision: ev.Precision,
		MinRecall:    ev.Recall,
		Censors:      []uint32{},
	}
	for _, c := range res.Censors {
		out.Censors = append(out.Censors, uint32(c.ASN))
	}
	return out, res
}

// checkGoldenOutcome asserts an observation against its expectation.
func checkGoldenOutcome(t *testing.T, mode string, got goldenOutcome, want goldenOutcome, res *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Censors, want.Censors) {
		t.Errorf("%s: identified censors = %v, want %v (regenerate with -update-golden if intentional)",
			mode, got.Censors, want.Censors)
	}
	if got.TrueCensors != want.TrueCensors {
		t.Errorf("%s: ground-truth registry has %d censors, expectation recorded %d",
			mode, got.TrueCensors, want.TrueCensors)
	}
	const eps = 1e-9
	ev := res.Evaluation
	if ev.Precision < want.MinPrecision-eps {
		t.Errorf("%s: precision %v below golden floor %v", mode, ev.Precision, want.MinPrecision)
	}
	if ev.Recall < want.MinRecall-eps {
		t.Errorf("%s: recall %v below golden floor %v", mode, ev.Recall, want.MinRecall)
	}
	for name, v := range map[string]float64{
		"precision": ev.Precision, "recall": ev.Recall, "f1": ev.F1,
		"exercisedRecall": ev.ExercisedRecall, "leakageRate": ev.LeakageRate,
		"candidateReduction": ev.CandidateReduction,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s: %s = %v outside [0, 1]", mode, name, v)
		}
	}
}

// TestGoldenEvaluation is the expected-outcome regression suite: every
// preset registered at init, batch and streaming, against the checked-in
// golden expectations.
func TestGoldenEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("20 end-to-end runs in -short mode")
	}
	want := map[string]goldenEntry{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenEvalPath)
		if err != nil {
			t.Fatalf("reading golden expectations (regenerate with -update-golden): %v", err)
		}
		var entries []goldenEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			t.Fatalf("parsing %s: %v", goldenEvalPath, err)
		}
		for _, e := range entries {
			want[e.Preset] = e
		}
	}

	var mu sync.Mutex
	observed := map[string]goldenEntry{}

	infos := builtinScenarios
	t.Run("presets", func(t *testing.T) {
		for _, info := range infos {
			preset := info.Name
			t.Run(preset, func(t *testing.T) {
				t.Parallel()
				batch, bres := observeGolden(t, preset, false)
				streaming, sres := observeGolden(t, preset, true)

				// Mode-independence first: the cumulative replay's final
				// window must agree with batch regardless of expectations.
				if !reflect.DeepEqual(batch.Censors, streaming.Censors) {
					t.Errorf("streaming disagrees with batch: %v vs %v", streaming.Censors, batch.Censors)
				}
				if len(sres.Windows) == 0 || sres.Evaluation.Convergence == nil && len(sres.Censors) > 0 {
					t.Error("streaming run lacks window timeline or convergence days")
				}

				if *updateGolden {
					mu.Lock()
					observed[preset] = goldenEntry{Preset: preset, Batch: batch, Streaming: streaming}
					mu.Unlock()
					return
				}
				w, ok := want[preset]
				if !ok {
					t.Fatalf("preset %q has no golden expectation; regenerate with -update-golden", preset)
				}
				checkGoldenOutcome(t, "batch", batch, w.Batch, bres)
				checkGoldenOutcome(t, "streaming", streaming, w.Streaming, sres)
			})
		}
	})

	if *updateGolden {
		if t.Failed() {
			t.Fatal("not rewriting golden expectations from a failed run")
		}
		entries := make([]goldenEntry, 0, len(infos))
		for _, info := range infos {
			e, ok := observed[info.Name]
			if !ok {
				t.Fatalf("preset %q produced no observation", info.Name)
			}
			entries = append(entries, e)
		}
		raw, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenEvalPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEvalPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenEvalPath, len(entries))
	}
}

// TestGoldenPaperBaselineAccuracy pins the headline claim on the paper's
// own scenario at the pinned seed: everything the tomography names is a
// true censor (precision exactly 1), and it finds a nonzero fraction of
// the exercised registry.
func TestGoldenPaperBaselineAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run in -short mode")
	}
	_, res := observeGolden(t, ScenarioBaseline, false)
	ev := res.Evaluation
	if ev.Precision != 1.0 {
		t.Errorf("paper-baseline precision = %v, want exactly 1.0 (false positives: %v)",
			ev.Precision, ev.FalsePositives)
	}
	if ev.TP == 0 {
		t.Error("paper-baseline identified no true censors at the pinned seed")
	}
	if ev.ExercisedRecall <= 0 {
		t.Errorf("paper-baseline exercised recall = %v, want > 0", ev.ExercisedRecall)
	}
	if ev.CandidateReduction <= 0 || ev.MultipleCNFs == 0 {
		t.Errorf("candidate reduction %v over %d ambiguous CNFs, want both positive",
			ev.CandidateReduction, ev.MultipleCNFs)
	}
}
