package churntomo

// The public Result surface. Everything an experiment learns — identified
// censors, dataset summary, leakage, churn, streaming timeline, matrix
// aggregate — is expressed here in exported types, so external consumers
// (the examples compile as such, enforced by `make api-check`) never need
// a churntomo/internal import. Small value types that already have stable
// public behaviour are re-exported as aliases rather than copied.

import (
	"sort"

	"churntomo/internal/analysis"
	"churntomo/internal/anomaly"
	"churntomo/internal/churn"
	"churntomo/internal/leakage"
	"churntomo/internal/sat"
	"churntomo/internal/stream"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
)

// ASN is an autonomous system number; its String form is "AS<n>".
type ASN = topology.ASN

// AnomalyKind is one of the platform's five censorship anomaly classes.
type AnomalyKind = anomaly.Kind

// AnomalySet is a bitmask of anomaly kinds; Has/Members/String are public.
type AnomalySet = anomaly.Set

// The five anomaly kinds, re-exported for external consumers.
const (
	AnomalyDNS   AnomalyKind = anomaly.DNS   // injected DNS responses (dual replies)
	AnomalyRST   AnomalyKind = anomaly.RST   // spurious TCP reset injection
	AnomalySEQ   AnomalyKind = anomaly.SEQ   // overlapping/gapped TCP sequence numbers
	AnomalyTTL   AnomalyKind = anomaly.TTL   // IP TTL inconsistent with the SYNACK
	AnomalyBlock AnomalyKind = anomaly.Block // censor blockpage in the HTTP response
)

// IdentifiedCensor aggregates everything the tomography learned about one
// censoring AS from unique-solution CNFs: the anomaly kinds it was
// identified for, the URLs involved, and the corroborating CNF count.
type IdentifiedCensor = tomo.IdentifiedCensor

// Censor is one identified censoring AS, enriched with topology context
// and the scenario's ground truth (which the paper lacked).
type Censor struct {
	ASN ASN
	// Name and Country describe the AS in the synthetic topology;
	// CountryName is the country's display name.
	Name, Country, CountryName string
	// Kinds unions the anomaly kinds the AS was identified for.
	Kinds AnomalySet
	// CNFs counts the unique-solution CNFs corroborating the
	// identification.
	CNFs int
	// URLs lists the censored URLs involved, sorted.
	URLs []string
	// TrueCensor reports whether the scenario's ground-truth registry
	// actually assigned this AS a censorship policy (false = spurious).
	TrueCensor bool
}

// Summary condenses the measured dataset and the solve outcome.
type Summary struct {
	// Scenario names the world-construction preset the run built under
	// ("paper-baseline" unless WithScenario/WithScenarioSpec changed it).
	Scenario string
	// Period is the measurement period, e.g. "2016-05-01..2017-05-02".
	Period string
	// Measurements counts all platform measurements.
	Measurements int
	// VantageASes/DestinationASes/UniqueURLs/Countries are the paper's
	// Table 1 dataset characteristics.
	VantageASes, DestinationASes, UniqueURLs, Countries int
	// CNFs counts constructed CNFs; the next three split them by the §3.2
	// solution trichotomy (unsatisfiable / unique / 2+ models).
	CNFs, UnsatCNFs, UniqueCNFs, MultipleCNFs int
}

// Leaker is one censoring AS that leaks its policy beyond itself
// (Table 3's row shape), with its victims resolved against the topology.
type Leaker struct {
	ASN           ASN
	Name, Country string
	// LeakedASes/LeakedCountries count distinct victim ASes and victim
	// countries other than the censor's own.
	LeakedASes, LeakedCountries int
	// Victims lists the affected upstream ASes, sorted by ASN.
	Victims []Victim
}

// Victim is one AS affected by another AS's censorship policy.
type Victim struct {
	ASN           ASN
	Name, Country string
}

// CountryFlow is one directed country-level leakage edge (Figure 5).
type CountryFlow struct {
	// From/To are ISO-style country codes; FromName/ToName display names.
	From, To, FromName, ToName string
	Weight                     int
}

// LeakageSummary is the §3.3 analysis in public form.
type LeakageSummary struct {
	// LeakToOtherASes counts censors with at least one victim AS;
	// LeakToOtherCountries counts those whose leakage crosses a border.
	LeakToOtherASes, LeakToOtherCountries int
	// Leakers ranks every leaking censor, most victims first.
	Leakers []Leaker
	// Flow lists the country-level leakage edges, heaviest first.
	Flow []CountryFlow
	// RegionalFracNonCN is the fraction of cross-border leakage (China
	// excluded) that stays within the censor's region.
	RegionalFracNonCN float64
}

// ChurnPeriod is one granularity of the paper's Figure 3: how many
// distinct AS paths a (vantage, URL) pair observes per period.
type ChurnPeriod struct {
	// Period is the granularity name: "day", "week", "month" or "year".
	Period string
	// Buckets[b] is the fraction of pair-periods with exactly b distinct
	// paths (b = 5 means "5 or more"); index 0 is unused.
	Buckets [6]float64
	// ChangedFrac is the fraction with 2+ distinct paths.
	ChangedFrac float64
	// Samples counts pair-periods.
	Samples int
}

// ClassChurn is churn split by the destination's CAIDA-style class — the
// paper's observation that churn does not depend on it.
type ClassChurn struct {
	Class       string
	ChangedFrac float64
	Samples     int
}

// AblationPeriod is one granularity of the no-churn ablation (Figure 4):
// solution-count fractions when CNFs see only each pair's first observed
// path. Populated only under WithChurnAblation.
type AblationPeriod struct {
	Period string
	// Frac[n] is the fraction of CNFs with n models (n = 5 means "5+").
	Frac [6]float64
	CNFs int
}

// WindowResult is one streaming window's localization.
type WindowResult struct {
	// Index is the window ordinal; StartDay/EndDay its inclusive range.
	Index, StartDay, EndDay int
	// CNFs counts the window's instances; Solved/Reused split the
	// incremental engine's work (re-solved vs served from cache).
	CNFs, Solved, Reused int
	// Identified is the window's censor set at the configured threshold.
	Identified map[ASN]*IdentifiedCensor
}

// Convergence describes how one censor's identification evolved across
// the window timeline.
type Convergence struct {
	ASN ASN
	// FirstWindow/LastWindow bound the windows that identified the AS;
	// Windows counts them.
	FirstWindow, LastWindow, Windows int
	// StableFrom is the earliest window from which the AS stays
	// identified through the end of the timeline, or -1 if the final
	// window no longer names it.
	StableFrom int
}

// MatrixCensor is one AS's identification record across a matrix.
type MatrixCensor struct {
	ASN           ASN
	Name, Country string
	// Runs counts the cells that identified the AS; CNFs sums their
	// corroborating CNFs; Kinds unions the anomaly kinds.
	Runs, CNFs int
	Kinds      AnomalySet
}

// MatrixSummary fuses a matrix run's cells.
type MatrixSummary struct {
	// Runs/Failed count successful and failed cells.
	Runs, Failed int
	// TotalCNFs/UniqueCNFs count all and unique-solution CNFs summed over
	// successful cells; LeakASes/LeakCountries sum the leakage headlines.
	TotalCNFs, UniqueCNFs   int
	LeakASes, LeakCountries int
	// Censors ranks every AS identified by at least one cell,
	// most-corroborated first; Stable lists those identified by every
	// successful cell, ascending.
	Censors []MatrixCensor
	Stable  []ASN
}

// CellStatus is one matrix cell's outcome summary.
type CellStatus struct {
	Index  int
	Config Config
	// Err is the cell's failure, nil on success. A failed cell does not
	// abort the matrix; it is counted in MatrixSummary.Failed.
	Err error
	// Censors/CNFs summarize a successful cell.
	Censors, CNFs int
}

// Result is what Experiment.Run returns: one experiment's complete public
// outcome, regardless of execution mode. Mode-specific sections are nil
// when not applicable.
type Result struct {
	// Config is the effective base configuration (defaults filled).
	Config Config
	// Mode records how the experiment executed.
	Mode Mode

	// Identified maps each identified censoring AS to its raw
	// identification record — in streaming mode, the final window's,
	// which a cumulative replay makes identical to the batch run's
	// (pinned by TestExperimentStreamingMatchesBatch). Nil in matrix
	// mode; see Matrix instead.
	Identified map[ASN]*IdentifiedCensor
	// Censors is Identified enriched with topology context and ground
	// truth, sorted by ASN.
	Censors []Censor

	// Summary condenses the dataset and solve outcome (single-cell modes).
	Summary Summary
	// Leakage is the §3.3 analysis; nil when nothing was localized.
	Leakage *LeakageSummary
	// Churn is the Figure 3 path-churn distribution per granularity;
	// ChurnByClass splits monthly churn by destination class.
	Churn        []ChurnPeriod
	ChurnByClass []ClassChurn
	// NoChurn is the Figure 4 ablation; only under WithChurnAblation.
	NoChurn []AblationPeriod

	// Windows is the streaming timeline in emission order, and
	// Convergence its per-censor stabilization stats (streaming mode).
	Windows     []WindowResult
	Convergence []Convergence

	// Evaluation grades the verdict against the scenario's ground truth
	// (precision/recall/F1, leakage rate, candidate reduction,
	// convergence days). Nil when no ground truth is available: matrix
	// mode, or a replayed dataset without a censor registry. See
	// Evaluate/Truth to score against external or modified truth.
	Evaluation *Evaluation

	// Matrix aggregates a matrix run; Cells reports per-cell outcomes in
	// input order (matrix mode).
	Matrix *MatrixSummary
	Cells  []CellStatus

	// Pipelines exposes the full internal artifacts, one per cell (nil
	// entries for failed cells). It exists for in-repo tooling (churnlab's
	// figure printers, in-package tests); external consumers should not
	// need it — everything above is self-contained.
	Pipelines []*Pipeline

	// reductionFracs caches the per-CNF candidate-elimination fractions
	// of the run's Multiple outcomes for Evaluate — in streaming mode
	// the final window's outcomes are not otherwise retained.
	reductionFracs []float64
}

// FinalWindow returns the last emitted streaming window, or nil outside
// streaming mode (or when the replay was too short to fill one).
func (r *Result) FinalWindow() *WindowResult {
	if len(r.Windows) == 0 {
		return nil
	}
	return &r.Windows[len(r.Windows)-1]
}

// censorsOf enriches an identification map against the pipeline's
// topology and ground-truth registry, sorted by ASN.
func censorsOf(identified map[topology.ASN]*tomo.IdentifiedCensor, p *Pipeline) []Censor {
	out := make([]Censor, 0, len(identified))
	for asn, c := range identified {
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		cc := Censor{ASN: asn, Kinds: c.Kinds, CNFs: c.CNFs, URLs: urls}
		if as, ok := p.Graph.ByASN(asn); ok {
			cc.Name, cc.Country = as.Name, as.Country
			if country, ok := topology.CountryByCode(as.Country); ok {
				cc.CountryName = country.Name
			}
		}
		_, cc.TrueCensor = p.Censors.Policy(asn)
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// summaryOf condenses Table 1 and the outcome classes.
func summaryOf(ds *Pipeline, outcomes []tomo.Outcome) Summary {
	t := ds.Dataset.Stats
	s := Summary{
		Scenario:     ds.Config.Scenario,
		Period:       t.Period,
		Measurements: t.Measurements,
		VantageASes:  t.VantageASes, DestinationASes: t.DestinationASes,
		UniqueURLs: t.UniqueURLs, Countries: t.Countries,
		CNFs: len(outcomes),
	}
	for _, o := range outcomes {
		switch o.Class {
		case sat.Unsat:
			s.UnsatCNFs++
		case sat.Unique:
			s.UniqueCNFs++
		case sat.Multiple:
			s.MultipleCNFs++
		}
	}
	return s
}

// leakageSummaryOf converts the internal analysis into the public form.
func leakageSummaryOf(a *leakage.Analysis, g *topology.Graph) *LeakageSummary {
	ls := &LeakageSummary{
		LeakToOtherASes:      a.LeakToOtherASes(),
		LeakToOtherCountries: a.LeakToOtherCountries(),
		RegionalFracNonCN:    a.RegionalFrac(g, "CN"),
	}
	for _, l := range a.TopLeakers(g, 0) {
		leaker := Leaker{
			ASN: l.ASN, Name: l.Name, Country: l.Country,
			LeakedASes: l.LeakedASes, LeakedCountries: l.LeakedCountries,
		}
		if detail := a.ByCensor[l.ASN]; detail != nil {
			for victim := range detail.VictimASes {
				v := Victim{ASN: victim}
				if as, ok := g.ByASN(victim); ok {
					v.Name, v.Country = as.Name, as.Country
				}
				leaker.Victims = append(leaker.Victims, v)
			}
			sort.Slice(leaker.Victims, func(i, j int) bool {
				return leaker.Victims[i].ASN < leaker.Victims[j].ASN
			})
		}
		ls.Leakers = append(ls.Leakers, leaker)
	}
	for _, e := range a.FlowEdges() {
		cf := CountryFlow{From: e.Edge.From, To: e.Edge.To, Weight: e.Weight}
		if c, ok := topology.CountryByCode(e.Edge.From); ok {
			cf.FromName = c.Name
		}
		if c, ok := topology.CountryByCode(e.Edge.To); ok {
			cf.ToName = c.Name
		}
		ls.Flow = append(ls.Flow, cf)
	}
	return ls
}

// churnOf measures the Figure 3 distributions over the dataset.
func churnOf(p *Pipeline) []ChurnPeriod {
	var out []ChurnPeriod
	for _, d := range churn.Measure(p.Dataset.Records, nil) {
		cp := ChurnPeriod{
			Period:      d.Gran.String(),
			ChangedFrac: d.ChangedFrac(),
			Samples:     d.Samples,
		}
		copy(cp.Buckets[:], d.Buckets[:])
		out = append(out, cp)
	}
	return out
}

// churnByClassOf splits monthly churn by destination class.
func churnByClassOf(p *Pipeline) []ClassChurn {
	byClass := churn.ByDestinationClass(p.Dataset.Records, p.Graph, timeslice.Month)
	var out []ClassChurn
	for _, class := range churn.Classes(byClass) {
		d := byClass[class]
		out = append(out, ClassChurn{
			Class: class.String(), ChangedFrac: d.ChangedFrac(), Samples: d.Samples,
		})
	}
	return out
}

// ablationOf runs the Figure 4 no-churn rebuild.
func ablationOf(p *Pipeline, workers int) []AblationPeriod {
	var out []AblationPeriod
	for _, row := range analysis.Figure4(p.Dataset.Records, workers) {
		ap := AblationPeriod{Period: row.Gran.String(), CNFs: row.CNFs}
		copy(ap.Frac[:], row.Frac[:])
		out = append(out, ap)
	}
	return out
}

// windowResultsOf converts the internal window timeline.
func windowResultsOf(windows []*stream.Window) []WindowResult {
	out := make([]WindowResult, 0, len(windows))
	for _, w := range windows {
		out = append(out, WindowResult{
			Index: w.Index, StartDay: w.StartDay, EndDay: w.EndDay,
			CNFs: len(w.Outcomes), Solved: w.Solved, Reused: w.Reused,
			Identified: w.Identified,
		})
	}
	return out
}

// convergencesOf converts the internal convergence stats.
func convergencesOf(cs []stream.Convergence) []Convergence {
	out := make([]Convergence, 0, len(cs))
	for _, c := range cs {
		out = append(out, Convergence{
			ASN: c.ASN, FirstWindow: c.FirstWindow, LastWindow: c.LastWindow,
			Windows: c.Windows, StableFrom: c.StableFrom,
		})
	}
	return out
}

// matrixSummaryOf folds a matrix's per-cell pipelines (nil for failed
// cells) into one summary. Every fold is commutative (sums, unions), so
// the summary is independent of worker count and scheduling. Names
// resolve against the first cell, in input order, whose topology knows
// the AS: cells share no graph, and ASN->name is seed-dependent.
func matrixSummaryOf(pipes []*Pipeline) *MatrixSummary {
	ms := &MatrixSummary{}
	byASN := map[ASN]*MatrixCensor{}
	for _, p := range pipes {
		if p == nil {
			ms.Failed++
			continue
		}
		ms.Runs++
		ms.TotalCNFs += len(p.Outcomes)
		for _, o := range p.Outcomes {
			if o.Class == sat.Unique {
				ms.UniqueCNFs++
			}
		}
		for asn, c := range p.Identified {
			mc := byASN[asn]
			if mc == nil {
				mc = &MatrixCensor{ASN: asn}
				byASN[asn] = mc
			}
			mc.Runs++
			mc.CNFs += c.CNFs
			mc.Kinds |= c.Kinds
		}
		if p.Leakage != nil {
			ms.LeakASes += p.Leakage.LeakToOtherASes()
			ms.LeakCountries += p.Leakage.LeakToOtherCountries()
		}
	}
	for _, mc := range byASN {
		ms.Censors = append(ms.Censors, *mc)
	}
	// Most-corroborated first: identifying runs, then total CNFs, then ASN.
	sort.Slice(ms.Censors, func(i, j int) bool {
		a, b := &ms.Censors[i], &ms.Censors[j]
		if a.Runs != b.Runs {
			return a.Runs > b.Runs
		}
		if a.CNFs != b.CNFs {
			return a.CNFs > b.CNFs
		}
		return a.ASN < b.ASN
	})
	for i := range ms.Censors {
		mc := &ms.Censors[i]
		for _, p := range pipes {
			if p == nil {
				continue
			}
			if as, ok := p.Graph.ByASN(mc.ASN); ok {
				mc.Name, mc.Country = as.Name, as.Country
				break
			}
		}
		if mc.Runs == ms.Runs {
			ms.Stable = append(ms.Stable, mc.ASN)
		}
	}
	sort.Slice(ms.Stable, func(i, j int) bool { return ms.Stable[i] < ms.Stable[j] })
	return ms
}
