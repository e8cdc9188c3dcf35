package churntomo

// The public Result surface. Everything an experiment learns — identified
// censors, dataset summary, leakage, churn, streaming timeline, matrix
// aggregate — is expressed here in exported types, so external consumers
// (the examples compile as such, enforced by `make api-check`) never need
// a churntomo/internal import. Small value types that already have stable
// public behaviour are re-exported as aliases rather than copied.

import (
	"sort"

	"churntomo/internal/anomaly"
	"churntomo/internal/churn"
	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/sat"
	"churntomo/internal/stream"
	"churntomo/internal/timeslice"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
	"churntomo/internal/webcat"
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
	// ("paper-baseline" unless WithScenario changed it).
	Scenario string
	// Period is the measurement period by month, e.g. "2016-05 ~ 2016-06".
	Period string
	// Measurements counts all platform measurements.
	Measurements int
	// VantageASes/DestinationASes/UniqueURLs/Countries are the paper's
	// Table 1 dataset characteristics.
	VantageASes, DestinationASes, UniqueURLs, Countries int
	// Anomalies counts the measurements flagged with each anomaly kind,
	// indexed by AnomalyKind (Table 1's per-kind rows). A measurement
	// flagged with several kinds counts once per kind.
	Anomalies [5]int
	// CNFs counts constructed CNFs; the next three split them by the §3.2
	// solution trichotomy (unsatisfiable / unique / 2+ models).
	CNFs, UnsatCNFs, UniqueCNFs, MultipleCNFs int
	// ByGranularity and ByKind split the same CNFs by time granularity
	// (day, week, month, year) and by anomaly kind in Figure 1b's order
	// (block, dns, rst, seq, ttl) — Figures 1a and 1b. Groups with no
	// CNFs are left out.
	ByGranularity, ByKind []ClassCounts
}

// ClassCounts splits one group's CNFs by the §3.2 solution trichotomy.
type ClassCounts struct {
	Group                         string
	CNFs, Unsat, Unique, Multiple int
}

// CategoryCount is one URL category's share of the verdict: how many
// (censor, URL) findings fall on URLs of that category.
type CategoryCount struct {
	Category Category
	Findings int
}

// Leaker is one censoring AS that leaks its policy beyond itself
// (Table 3's row shape), with its victims resolved against the topology.
type Leaker struct {
	ASN           ASN
	Name, Country string
	// CountryName is the country's display name ("" when the code is
	// not a known country).
	CountryName string
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
	// Categories counts the identified (censor, URL) findings per URL
	// category, most findings first, ties by category code. Categories
	// with no findings are left out.
	Categories []CategoryCount

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
	// mode, or a replayed dataset that lists no true censors. See
	// Evaluate/Truth to score against external or modified truth.
	Evaluation *Evaluation

	// Matrix aggregates a matrix run; Cells reports per-cell outcomes in
	// input order (matrix mode).
	Matrix *MatrixSummary
	Cells  []CellStatus

	// Reductions holds the candidate-elimination fraction of each
	// multi-solution CNF, in CNF order (Figure 2's samples); a CNF that
	// eliminated nothing has fraction 0. Evaluate averages it.
	Reductions []float64

	// cell keeps a single-cell run's internal artifacts for Export,
	// Dataset, Truth and ChokePoints; nil in matrix mode.
	cell *cell
}

// FinalWindow returns the last emitted streaming window, or nil outside
// streaming mode (or when the replay was too short to fill one).
func (r *Result) FinalWindow() *WindowResult {
	if len(r.Windows) == 0 {
		return nil
	}
	return &r.Windows[len(r.Windows)-1]
}

// censorsOf enriches an identification map against the world's topology
// and ground-truth registry, sorted by ASN.
func censorsOf(identified map[topology.ASN]*tomo.IdentifiedCensor, world *iclab.Scenario) []Censor {
	out := make([]Censor, 0, len(identified))
	for asn, c := range identified {
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		cc := Censor{ASN: asn, Kinds: c.Kinds, CNFs: c.CNFs, URLs: urls}
		if as, ok := world.Graph.ByASN(asn); ok {
			cc.Name, cc.Country = as.Name, as.Country
			cc.CountryName = countryName(as.Country)
		}
		if world.Censors != nil {
			_, cc.TrueCensor = world.Censors.Policy(asn)
		}
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// countryName is a country code's display name, "" when unknown.
func countryName(code string) string {
	c, _ := topology.CountryByCode(code)
	return c.Name
}

// figure1bOrder is Figure 1b's legend order.
var figure1bOrder = []AnomalyKind{AnomalyBlock, AnomalyDNS, AnomalyRST, AnomalySEQ, AnomalyTTL}

// add counts one CNF of the given class.
func (c *ClassCounts) add(class sat.Classification) {
	c.CNFs++
	switch class {
	case sat.Unsat:
		c.Unsat++
	case sat.Unique:
		c.Unique++
	case sat.Multiple:
		c.Multiple++
	}
}

// summaryOf condenses Table 1 and the outcome classes, overall and by
// granularity and anomaly kind.
func summaryOf(c *cell, outcomes []tomo.Outcome) Summary {
	t := c.table1
	s := Summary{
		Scenario:     c.cfg.Scenario,
		Period:       t.Period,
		Measurements: t.Measurements,
		VantageASes:  t.VantageASes, DestinationASes: t.DestinationASes,
		UniqueURLs: t.UniqueURLs, Countries: t.Countries,
		Anomalies: t.Anomalies,
	}
	var all ClassCounts
	byGran := make([]ClassCounts, len(timeslice.All))
	byKind := make([]ClassCounts, anomaly.NumKinds)
	for _, o := range outcomes {
		key := o.Inst.Key
		all.add(o.Class)
		byGran[key.Slice.Gran].add(o.Class)
		byKind[key.Kind].add(o.Class)
	}
	s.CNFs, s.UnsatCNFs, s.UniqueCNFs, s.MultipleCNFs = all.CNFs, all.Unsat, all.Unique, all.Multiple
	for _, g := range timeslice.All {
		if cc := byGran[g]; cc.CNFs > 0 {
			cc.Group = g.String()
			s.ByGranularity = append(s.ByGranularity, cc)
		}
	}
	for _, k := range figure1bOrder {
		if cc := byKind[k]; cc.CNFs > 0 {
			cc.Group = k.String()
			s.ByKind = append(s.ByKind, cc)
		}
	}
	return s
}

// categoriesOf counts the identified (censor, URL) findings per URL
// category — the paper's McAfee-categorization analysis.
func categoriesOf(identified map[topology.ASN]*tomo.IdentifiedCensor, targets []iclab.Target) []CategoryCount {
	urlCat := map[string]Category{}
	for _, t := range targets {
		urlCat[t.URL.Host] = t.URL.Category
	}
	var counts [webcat.NumCategories]int
	for _, c := range identified {
		for url := range c.URLs {
			if cat, ok := urlCat[url]; ok {
				counts[cat]++
			}
		}
	}
	var out []CategoryCount
	for cat, n := range counts {
		if n > 0 {
			out = append(out, CategoryCount{Category: Category(cat), Findings: n})
		}
	}
	// Stable: ties keep ascending category order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Findings > out[j].Findings })
	return out
}

// leakageSummaryOf converts the internal analysis into the public form.
func leakageSummaryOf(a *leakage.Analysis, g *topology.Graph) *LeakageSummary {
	ls := &LeakageSummary{
		LeakToOtherASes:      a.LeakToOtherASes(),
		LeakToOtherCountries: a.LeakToOtherCountries(),
		RegionalFracNonCN:    a.RegionalFrac(g, "CN"),
	}
	for _, l := range a.TopLeakers(g) {
		leaker := Leaker{
			ASN: l.ASN, Name: l.Name, Country: l.Country, CountryName: countryName(l.Country),
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
		ls.Flow = append(ls.Flow, CountryFlow{
			From: e.Edge.From, To: e.Edge.To, Weight: e.Weight,
			FromName: countryName(e.Edge.From), ToName: countryName(e.Edge.To),
		})
	}
	return ls
}

// churnOf measures the Figure 3 distributions and the monthly split by
// destination class in one pass over the records.
func churnOf(c *cell) ([]ChurnPeriod, []ClassChurn) {
	periods, byClass := churn.Measure(c.records, c.world.Graph)
	var out []ChurnPeriod
	for _, d := range periods {
		cp := ChurnPeriod{
			Period:      d.Gran.String(),
			ChangedFrac: d.ChangedFrac(),
			Samples:     d.Samples,
		}
		copy(cp.Buckets[:], d.Buckets[:])
		out = append(out, cp)
	}
	var classes []ClassChurn
	for _, class := range churn.Classes(byClass) {
		d := byClass[class]
		classes = append(classes, ClassChurn{
			Class: class.String(), ChangedFrac: d.ChangedFrac(), Samples: d.Samples,
		})
	}
	return out, classes
}

// ablationOf runs the Figure 4 no-churn rebuild: the day, week and month
// CNFs of each (vantage, URL) pair's first observed path only, bucketed by
// model count up to 5+. It shows that path churn is what makes the
// tomography solvable. Granularities with no CNF are left out.
func ablationOf(c *cell) []AblationPeriod {
	grans := []timeslice.Granularity{timeslice.Day, timeslice.Week, timeslice.Month}
	insts := tomo.Build(churn.FirstPathOnly(c.records), tomo.BuildConfig{Granularities: grans, Workers: c.cfg.Workers})
	rows := make([]AblationPeriod, len(timeslice.All))
	for _, in := range insts {
		row := &rows[in.Key.Slice.Gran]
		row.Frac[tomo.CountModels(in, 5)]++
		row.CNFs++
	}
	var out []AblationPeriod
	for _, g := range grans {
		row := rows[g]
		if row.CNFs == 0 {
			continue
		}
		row.Period = g.String()
		for i := range row.Frac {
			row.Frac[i] /= float64(row.CNFs)
		}
		out = append(out, row)
	}
	return out
}

// windowResultOf converts one window of the internal timeline.
func windowResultOf(w *stream.Window) WindowResult {
	return WindowResult{
		Index: w.Index, StartDay: w.StartDay, EndDay: w.EndDay,
		CNFs: len(w.Outcomes), Solved: w.Solved, Reused: w.Reused,
		Identified: w.Identified,
	}
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

// matrixSummaryOf folds a matrix's cells (nil for failed ones) into one
// summary. Every fold is commutative (sums, unions), so the summary is
// independent of worker count and scheduling. Names resolve against the
// first cell, in input order, whose topology knows the AS: cells share no
// graph, and ASN->name is seed-dependent.
func matrixSummaryOf(cells []*cell) *MatrixSummary {
	ms := &MatrixSummary{}
	byASN := map[ASN]*MatrixCensor{}
	for _, c := range cells {
		if c == nil {
			ms.Failed++
			continue
		}
		ms.Runs++
		ms.TotalCNFs += len(c.outcomes)
		for _, o := range c.outcomes {
			if o.Class == sat.Unique {
				ms.UniqueCNFs++
			}
		}
		for asn, id := range c.identified {
			mc := byASN[asn]
			if mc == nil {
				mc = &MatrixCensor{ASN: asn}
				byASN[asn] = mc
			}
			mc.Runs++
			mc.CNFs += id.CNFs
			mc.Kinds |= id.Kinds
		}
		if c.leakage != nil {
			ms.LeakASes += c.leakage.LeakToOtherASes()
			ms.LeakCountries += c.leakage.LeakToOtherCountries()
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
		for _, c := range cells {
			if c == nil {
				continue
			}
			if as, ok := c.world.Graph.ByASN(mc.ASN); ok {
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
