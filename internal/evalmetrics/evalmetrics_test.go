package evalmetrics

import (
	"math"
	"testing"

	"churntomo/internal/topology"
)

func asns(xs ...uint32) []topology.ASN {
	out := make([]topology.ASN, len(xs))
	for i, x := range xs {
		out[i] = topology.ASN(x)
	}
	return out
}

func TestScorePerfect(t *testing.T) {
	m := Score(Input{
		Identified: asns(10, 20, 30),
		True:       asns(30, 10, 20),
		Exercised:  asns(10, 20, 30),
	})
	if m.TP != 3 || m.FP != 0 || m.Missed != 0 {
		t.Fatalf("counts = %d/%d/%d, want 3/0/0", m.TP, m.FP, m.Missed)
	}
	for name, v := range map[string]float64{
		"precision": m.Precision, "recall": m.Recall, "f1": m.F1, "exercised": m.ExercisedRecall,
	} {
		if v != 1 {
			t.Errorf("%s = %v, want 1", name, v)
		}
	}
	if m.LeakageRate != 0 || m.LeakageFPs != 0 {
		t.Errorf("leakage = %d (%v), want none", m.LeakageFPs, m.LeakageRate)
	}
}

func TestScoreMixedVerdict(t *testing.T) {
	m := Score(Input{
		Identified:     asns(10, 40, 50), // 10 correct, 40+50 false
		True:           asns(10, 20),
		Exercised:      asns(10),
		OnCensoredPath: asns(10, 40, 99), // 40 is a leakage FP, 50 is not
	})
	if m.TP != 1 || m.FP != 2 || m.Missed != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/2/1", m.TP, m.FP, m.Missed)
	}
	if want := 1.0 / 3.0; math.Abs(m.Precision-want) > 1e-12 {
		t.Errorf("precision = %v, want %v", m.Precision, want)
	}
	if m.Recall != 0.5 {
		t.Errorf("recall = %v, want 0.5", m.Recall)
	}
	if want := 2 * (1.0 / 3.0) * 0.5 / (1.0/3.0 + 0.5); math.Abs(m.F1-want) > 1e-12 {
		t.Errorf("f1 = %v, want %v", m.F1, want)
	}
	if m.ExercisedRecall != 1 { // the only exercised censor (10) was found
		t.Errorf("exercised recall = %v, want 1", m.ExercisedRecall)
	}
	if m.LeakageFPs != 1 || m.LeakageRate != 0.5 {
		t.Errorf("leakage = %d (%v), want 1 (0.5)", m.LeakageFPs, m.LeakageRate)
	}
	if got := m.FalsePositives; len(got) != 2 || got[0] != 40 || got[1] != 50 {
		t.Errorf("false positives = %v, want [40 50]", got)
	}
	if got := m.MissedASes; len(got) != 1 || got[0] != 20 {
		t.Errorf("missed = %v, want [20]", got)
	}
}

func TestScoreDegenerateCases(t *testing.T) {
	// Empty verdict against empty truth: vacuous success on recall,
	// precision pinned at 0, not NaN.
	m := Score(Input{})
	if m.Precision != 0 || m.Recall != 1 || m.F1 != 0 || m.ExercisedRecall != 1 {
		t.Errorf("empty input: P=%v R=%v F1=%v ER=%v, want 0/1/0/1",
			m.Precision, m.Recall, m.F1, m.ExercisedRecall)
	}

	// Identified something in a censor-free world: pure false positives.
	m = Score(Input{Identified: asns(7)})
	if m.Precision != 0 || m.Recall != 1 || m.FP != 1 {
		t.Errorf("FP-only: P=%v R=%v FP=%d, want 0/1/1", m.Precision, m.Recall, m.FP)
	}

	// Nothing identified with real censors: recall 0, precision 0.
	m = Score(Input{True: asns(1, 2)})
	if m.Precision != 0 || m.Recall != 0 || m.Missed != 2 {
		t.Errorf("miss-all: P=%v R=%v missed=%d, want 0/0/2", m.Precision, m.Recall, m.Missed)
	}
}

func TestScoreDeduplicatesAndClamps(t *testing.T) {
	m := Score(Input{
		Identified: asns(5, 5, 5, 9),
		True:       asns(5, 5),
		Exercised:  asns(5, 5, 777), // 777 not in truth: ignored
	})
	if m.TP != 1 || m.FP != 1 {
		t.Fatalf("counts = %d/%d, want 1/1 after dedupe", m.TP, m.FP)
	}
	if m.Precision != 0.5 || m.Recall != 1 {
		t.Errorf("P=%v R=%v, want 0.5/1", m.Precision, m.Recall)
	}
	if m.ExercisedRecall != 1 {
		t.Errorf("exercised recall = %v, want 1 (777 clamped out)", m.ExercisedRecall)
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(nil); got != 0 {
		t.Errorf("Reduction(nil) = %v, want 0", got)
	}
	if got := Reduction([]float64{0.5, 1.0}); got != 0.75 {
		t.Errorf("Reduction = %v, want 0.75", got)
	}
	// Out-of-range inputs are clamped, keeping the mean in [0, 1].
	if got := Reduction([]float64{-3, 7}); got != 0.5 {
		t.Errorf("Reduction clamp = %v, want 0.5", got)
	}
}
