package churntomo

// The ground-truth accuracy surface. A synthetic world knows exactly who
// censors — the paper's authors did not — so every run can be scored:
// Result.Truth() extracts the ground truth the generators recorded,
// Evaluate grades the tomography's verdict against it, and
// Result.Evaluation carries the grade for the common case. The scoring
// arithmetic itself lives in internal/evalmetrics; this file only maps
// the public Result onto it.

import (
	"sort"

	"churntomo/internal/evalmetrics"
	"churntomo/internal/topology"
)

// GroundTruth is what the scenario generators know about censorship in
// one synthesized world: the full censor registry, the subset that
// actually fired during the measurement period, and every AS that sat on
// a path carrying a censorship event.
type GroundTruth struct {
	// Censors is the complete ground-truth censor set.
	Censors []ASN
	// Exercised lists the censors that produced at least one anomaly —
	// the fair recall target: a censor no measurement crossed leaves no
	// evidence to localize.
	Exercised []ASN
	// OnCensoredPath lists every AS (censor or bystander) on some
	// measured path that carried a censorship event. A false positive
	// inside this set is "leakage": the method accused a bystander of
	// the blocking it witnessed.
	OnCensoredPath []ASN
}

// CensorConvergence is one AS's identification timeline in streaming
// mode, in measurement days rather than window ordinals.
type CensorConvergence struct {
	ASN        ASN
	TrueCensor bool
	// FirstDay is the end day of the first window that identified the
	// AS — the earliest the method could have named it.
	FirstDay int
	// StableDay is the end day of the window from which the AS stays
	// identified through the end of the timeline, or -1 if the final
	// window no longer names it.
	StableDay int
	// Windows counts the windows that identified the AS.
	Windows int
}

// Evaluation grades one run's verdict against ground truth. All rates
// are in [0, 1]; degenerate cases are pinned, never NaN (see
// internal/evalmetrics for the exact rules).
type Evaluation struct {
	// TrueCensors/ExercisedCensors/IdentifiedASes size the three sets.
	TrueCensors, ExercisedCensors, IdentifiedASes int

	// TP/FP/Missed decompose the verdict against the full censor set.
	TP, FP, Missed int

	Precision float64
	Recall    float64
	F1        float64

	// ExercisedRecall is recall over censors that actually fired
	// (1 when none did).
	ExercisedRecall float64

	// LeakageFPs counts false positives that lie on some censored path;
	// LeakageRate is their fraction of all false positives (0 when
	// there are none). High leakage means the method's mistakes are
	// path-intersection mistakes, not noise.
	LeakageFPs  int
	LeakageRate float64

	// FalsePositives and MissedCensors name the errors, sorted.
	FalsePositives []ASN
	MissedCensors  []ASN

	// CandidateReduction is the mean fraction of candidate ASes proven
	// non-censors across the ambiguous (multi-solution) CNFs — Figure
	// 2's quantity, over the MultipleCNFs instances it averages.
	CandidateReduction float64
	MultipleCNFs       int

	// Convergence maps the streaming identification timeline onto
	// measurement days; nil outside streaming mode.
	Convergence []CensorConvergence
}

// Truth extracts the ground truth a single-cell run's generators
// recorded: the censor registry, the censors that fired, and the ASes on
// censored paths. It returns nil when the result carries no ground
// truth — matrix mode (each cell has its own world) or a replayed
// dataset that lists no ground-truth censors.
func (r *Result) Truth() *GroundTruth {
	if r == nil || r.cell == nil || r.cell.world.Censors == nil {
		return nil
	}
	c := r.cell
	gt := &GroundTruth{Censors: c.world.Censors.ASNs()}
	exercised := map[topology.ASN]bool{}
	onPath := map[topology.ASN]bool{}
	for i := range c.records {
		rec := &c.records[i]
		if len(rec.TrueActs) == 0 {
			continue
		}
		for _, act := range rec.TrueActs {
			exercised[act.ASN] = true
		}
		for _, as := range rec.TruePath {
			onPath[as] = true
		}
	}
	for as := range exercised {
		gt.Exercised = append(gt.Exercised, as)
	}
	for as := range onPath {
		gt.OnCensoredPath = append(gt.OnCensoredPath, as)
	}
	// Map iteration is unordered; Evaluate sorts internally, but keep
	// the public struct deterministic too.
	sortASNs(gt.Exercised)
	sortASNs(gt.OnCensoredPath)
	return gt
}

// Evaluate grades a result's identified censor set against ground
// truth. It is pure set arithmetic — safe on adversarial inputs, never
// panics, all rates in [0, 1] — and returns nil only when either
// argument is nil. Convergence and CandidateReduction are filled from
// the result when the mode provides them.
func Evaluate(r *Result, truth *GroundTruth) *Evaluation {
	if r == nil || truth == nil {
		return nil
	}
	identified := make([]ASN, 0, len(r.Censors))
	for _, c := range r.Censors {
		identified = append(identified, c.ASN)
	}
	m := evalmetrics.Score(evalmetrics.Input{
		Identified:     identified,
		True:           truth.Censors,
		Exercised:      truth.Exercised,
		OnCensoredPath: truth.OnCensoredPath,
	})
	ev := &Evaluation{
		TrueCensors:      m.TP + m.Missed,
		ExercisedCensors: countInTruth(truth.Exercised, truth.Censors),
		IdentifiedASes:   m.TP + m.FP,
		TP:               m.TP, FP: m.FP, Missed: m.Missed,
		Precision: m.Precision, Recall: m.Recall, F1: m.F1,
		ExercisedRecall: m.ExercisedRecall,
		LeakageFPs:      m.LeakageFPs, LeakageRate: m.LeakageRate,
		FalsePositives: m.FalsePositives,
		MissedCensors:  m.MissedASes,
	}

	ev.MultipleCNFs = len(r.Reductions)
	ev.CandidateReduction = evalmetrics.Reduction(r.Reductions)

	truthSet := map[ASN]bool{}
	for _, as := range truth.Censors {
		truthSet[as] = true
	}
	for _, c := range r.Convergence {
		cc := CensorConvergence{
			ASN: c.ASN, TrueCensor: truthSet[c.ASN],
			FirstDay: -1, StableDay: -1, Windows: c.Windows,
		}
		if c.FirstWindow >= 0 && c.FirstWindow < len(r.Windows) {
			cc.FirstDay = r.Windows[c.FirstWindow].EndDay
		}
		if c.StableFrom >= 0 && c.StableFrom < len(r.Windows) {
			cc.StableDay = r.Windows[c.StableFrom].EndDay
		}
		ev.Convergence = append(ev.Convergence, cc)
	}
	return ev
}

// ChokePointCandidate is one high-betweenness border AS, scored and
// cross-referenced against the verdict and the ground truth — the
// structural candidate report for chokepoint-style deployments.
type ChokePointCandidate struct {
	ASN           ASN
	Name, Country string
	// Score is the AS's normalized betweenness centrality in [0, 1].
	Score float64
	// Identified reports whether the tomography named this AS;
	// TrueCensor whether the ground-truth registry did.
	Identified, TrueCensor bool
}

// ChokePoints ranks the topology's border ASes by betweenness
// centrality and returns the top n (all when n <= 0), cross-referenced
// against the run's verdict and ground truth. It returns nil when the
// result carries no routable topology — matrix mode, or a metadata-only
// replay whose graph has no links.
func (r *Result) ChokePoints(n int) []ChokePointCandidate {
	if r == nil || r.cell == nil {
		return nil
	}
	g, reg := r.cell.world.Graph, r.cell.world.Censors
	if g == nil || len(g.Links) == 0 {
		return nil
	}
	ranked := g.ChokePoints()
	if n > 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	out := make([]ChokePointCandidate, 0, len(ranked))
	for _, cp := range ranked {
		c := ChokePointCandidate{ASN: cp.ASN, Score: cp.Score}
		if as, ok := g.ByASN(cp.ASN); ok {
			c.Name, c.Country = as.Name, as.Country
		}
		_, c.Identified = r.Identified[cp.ASN]
		if reg != nil {
			_, c.TrueCensor = reg.Policy(cp.ASN)
		}
		out = append(out, c)
	}
	return out
}

// countInTruth counts distinct members of s that appear in truth.
func countInTruth(s, truth []ASN) int {
	in := map[ASN]bool{}
	for _, as := range truth {
		in[as] = true
	}
	seen := map[ASN]bool{}
	n := 0
	for _, as := range s {
		if in[as] && !seen[as] {
			seen[as] = true
			n++
		}
	}
	return n
}

// sortASNs sorts ascending in place.
func sortASNs(s []ASN) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
