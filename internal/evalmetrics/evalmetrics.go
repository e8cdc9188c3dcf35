package evalmetrics

import (
	"slices"

	"churntomo/internal/topology"
)

// Input is one verdict to score. All slices may be nil, unsorted, and
// contain duplicates; duplicates are collapsed before scoring.
type Input struct {
	// Identified is the tomography's verdict: ASes named as censors.
	Identified []topology.ASN
	// True is the full ground-truth censor set (the scenario registry).
	True []topology.ASN
	// Exercised is the subset of True that produced at least one anomaly
	// during the run. ASes listed here but absent from True are ignored.
	Exercised []topology.ASN
	// OnCensoredPath is every AS that appeared on some path carrying a
	// true censorship event. False positives inside this set are
	// "leakage": innocent bystanders of real blocking, the failure mode
	// path intersection cannot escape and tomography should.
	OnCensoredPath []topology.ASN
}

// Metrics is the scored verdict. All rates are in [0, 1]; the
// degenerate cases are pinned rather than NaN: precision is 0 when
// nothing was identified, recall is 1 when there was nothing to find,
// and leakage rate is 0 when there are no false positives to classify.
type Metrics struct {
	TP     int // identified ∩ true
	FP     int // identified \ true
	Missed int // true \ identified

	Precision float64
	Recall    float64
	F1        float64

	// ExercisedRecall is recall restricted to censors that fired.
	// 1 when no censor fired.
	ExercisedRecall float64

	// LeakageFPs counts false positives lying on some censored path;
	// LeakageRate = LeakageFPs / FP (0 when FP == 0).
	LeakageFPs  int
	LeakageRate float64

	// FalsePositives and MissedASes name the errors, sorted ascending.
	FalsePositives []topology.ASN
	MissedASes     []topology.ASN
}

// dedupe returns the sorted unique elements of s (nil in, nil out).
func dedupe(s []topology.ASN) []topology.ASN {
	if len(s) == 0 {
		return nil
	}
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

// Score evaluates one verdict. It never panics and always returns rates
// in [0, 1], whatever the inputs.
func Score(in Input) Metrics {
	identified := dedupe(in.Identified)
	truth := dedupe(in.True)
	onPath := dedupe(in.OnCensoredPath)

	// Exercised is clamped to the truth set: a censor that "fired" but
	// is not in the registry is a caller inconsistency, not a harder
	// recall target.
	var exercised []topology.ASN
	for _, a := range dedupe(in.Exercised) {
		if _, ok := slices.BinarySearch(truth, a); ok {
			exercised = append(exercised, a)
		}
	}

	var m Metrics
	for _, a := range identified {
		if _, ok := slices.BinarySearch(truth, a); ok {
			m.TP++
		} else {
			m.FP++
			m.FalsePositives = append(m.FalsePositives, a)
			if _, leak := slices.BinarySearch(onPath, a); leak {
				m.LeakageFPs++
			}
		}
	}
	for _, a := range truth {
		if _, ok := slices.BinarySearch(identified, a); !ok {
			m.Missed++
			m.MissedASes = append(m.MissedASes, a)
		}
	}

	if n := len(identified); n > 0 {
		m.Precision = float64(m.TP) / float64(n)
	}
	if len(truth) == 0 {
		m.Recall = 1
	} else {
		m.Recall = float64(m.TP) / float64(len(truth))
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}

	if len(exercised) == 0 {
		m.ExercisedRecall = 1
	} else {
		hit := 0
		for _, a := range exercised {
			if _, ok := slices.BinarySearch(identified, a); ok {
				hit++
			}
		}
		m.ExercisedRecall = float64(hit) / float64(len(exercised))
	}

	if m.FP > 0 {
		m.LeakageRate = float64(m.LeakageFPs) / float64(m.FP)
	}
	return m
}

// Reduction summarizes how far tomography shrank the candidate space:
// the mean fraction of on-path candidate ASes eliminated across the
// ambiguous (Multiple-outcome) CNFs it could not fully solve. fracs are
// per-CNF elimination fractions in [0, 1]; values outside are clamped.
// Returns 0 for an empty slice.
func Reduction(fracs []float64) float64 {
	if len(fracs) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range fracs {
		if f < 0 {
			f = 0
		} else if f > 1 {
			f = 1
		}
		sum += f
	}
	return sum / float64(len(fracs))
}
