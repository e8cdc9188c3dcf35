package tomo

import (
	"context"
	"math/bits"
	"slices"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/parallel"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
)

// Key identifies one CNF instance.
type Key struct {
	URL   string
	Slice timeslice.Key
	Kind  anomaly.Kind
}

// Instance is one CNF with its AS-to-variable interning and the provenance
// the leakage analysis needs. It holds the CNF as two facts, all that
// Solve and CountModels read: which variables lie on the kind's clean
// paths (1..negated), and each censored path's variables. CNFOf writes
// the clauses out.
type Instance struct {
	Key Key
	// CNF is CNFOf(in). Only Build sets it, for the callers that count or
	// search the clauses; BuildAndSolve and Incremental leave it nil.
	CNF *sat.CNF
	// Vars maps variable v (1-based) to Vars[v-1]. Vars[:negated] are the
	// ASes on the kind's clean paths, in the order those paths first name
	// them; the censored paths' other ASes follow.
	Vars []topology.ASN

	// PositivePaths are the distinct AS paths of censored observations.
	PositivePaths [][]topology.ASN
	// Measurements counts records folded into this CNF.
	Measurements int

	// negated counts the variables on clean paths.
	negated int
	// censored lists the variables of every PositivePaths entry back to
	// back, one per hop: path i's are the len(PositivePaths[i]) entries
	// after those of the paths before it.
	censored []int32
}

// CNFOf writes an instance out as the CNF the paper hands to a SAT solver
// (§3.2): a negative unit clause for each variable on a clean path, in
// variable order, then one all-positive clause per censored path, in
// PositivePaths order and with the path's repeated ASes kept. Build sets
// every instance's CNF from it.
func CNFOf(in *Instance) *sat.CNF {
	c := &sat.CNF{NumVars: len(in.Vars), Clauses: make([]sat.Clause, 0, in.negated+len(in.PositivePaths))}
	for v := 1; v <= in.negated; v++ {
		c.AddClause(sat.Lit(v).Neg())
	}
	var lits []sat.Lit
	off := 0
	for _, p := range in.PositivePaths {
		lits = lits[:0]
		for _, v := range in.censored[off : off+len(p)] {
			lits = append(lits, sat.Lit(v))
		}
		off += len(p)
		c.AddClause(lits...)
	}
	return c
}

// BuildConfig controls CNF construction.
type BuildConfig struct {
	// Granularities to build; nil = all four (day, week, month, year).
	Granularities []timeslice.Granularity
	// Kinds to build; nil = all five anomaly kinds.
	Kinds []anomaly.Kind
	// Workers bounds the parallelism of materialization and (in
	// BuildAndSolve) solving. 0 uses GOMAXPROCS, 1 forces serial
	// execution. The result is identical at any setting.
	Workers int
}

// fillDefaults fills nil fields and drops repeated granularities and
// kinds, keeping first occurrences, so a repeat never folds a record
// twice.
func (c *BuildConfig) fillDefaults() {
	if c.Granularities == nil {
		c.Granularities = timeslice.All
	}
	if c.Kinds == nil {
		c.Kinds = anomaly.Kinds
	}
	c.Granularities = firstOccurrences(c.Granularities)
	c.Kinds = firstOccurrences(c.Kinds)
}

// firstOccurrences returns s without repeats, in first-occurrence order.
// s itself is never modified.
func firstOccurrences[T comparable](s []T) []T {
	out := make([]T, 0, len(s))
	for _, x := range s {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// batch is one batch build's folded input: the tables, and the cells that
// become CNFs in instance order, with first[i] the index of cell i's first
// instance (first[len(cells)] is the instance count). A slice that saw no
// anomaly at all would give a trivially unique CNF (the all-False model)
// with no localization signal, so only the kinds a cell saw censored
// become CNFs — matching the paper's Figure 4, where removing churn
// collapses most CNFs to 5+ solutions (impossible if anomaly-free CNFs
// dominated the population).
type batch struct {
	paths pathTable
	urls  interner
	kinds uint16
	cells []*part
	first []int
}

func newBatch(records []iclab.Record, cfg *BuildConfig) *batch {
	b := &batch{paths: newPathTable(), urls: newInterner(), kinds: kindMask(cfg.Kinds)}
	for _, p := range fold(records, cfg.Granularities, &b.paths, &b.urls) {
		if p.signal&b.kinds != 0 {
			b.cells = append(b.cells, p)
		}
	}
	b.paths.rerank()
	b.urls.rerank()
	slices.SortFunc(b.cells, func(x, y *part) int { return compareCells(x.key, y.key, b.urls.rank) })
	b.first = make([]int, len(b.cells)+1)
	for i, c := range b.cells {
		b.first[i+1] = b.first[i] + bits.OnesCount16(c.signal&b.kinds)
	}
	return b
}

// build materializes cell i's CNFs, handing each to emit with its
// instance index.
func (b *batch) build(i int, emit func(j int, in *Instance)) {
	j := b.first[i]
	buildCell(b.cells[i:i+1], b.kinds, &b.paths, &b.urls, func(in *Instance) {
		emit(j, in)
		j++
	})
}

// Build constructs CNF instances from measurement records. Records are
// folded into (URL, slice) cells and the cells' CNFs materialized across
// cfg.Workers; the result is sorted deterministically and identical at any
// worker count. Build alone writes each instance's clauses out (CNFOf):
// callers that only classify should use BuildAndSolve, which does not.
func Build(records []iclab.Record, cfg BuildConfig) []*Instance {
	cfg.fillDefaults()
	b := newBatch(records, &cfg)
	out := make([]*Instance, b.first[len(b.cells)])
	parallel.ForEach(cfg.Workers, len(b.cells), func(i int) {
		b.build(i, func(j int, in *Instance) {
			in.CNF = CNFOf(in)
			out[j] = in
		})
	})
	return out
}

// BuildAndSolve constructs and solves the CNFs in one streaming pass: the
// worker that materializes an instance solves it immediately, so solving
// starts as soon as the first CNF exists instead of waiting behind a global
// build barrier. Instances and outcomes are returned in the same order
// Build followed by SolveAll would produce, with outcome i belonging to
// instance i.
func BuildAndSolve(records []iclab.Record, cfg BuildConfig) ([]*Instance, []Outcome) {
	insts, outs, _ := BuildAndSolveCtx(context.Background(), records, cfg)
	return insts, outs
}

// buildSolveObserver, when non-nil, is called by BuildAndSolveCtx after
// each instance's materialize and after its solve. It is a test seam
// pinning that solving streams into construction (each worker solves the
// CNF it just built before materializing the next) rather than waiting
// behind a global build barrier. Always nil outside tests; callbacks may
// run concurrently when Workers > 1.
var buildSolveObserver func(event string, key int)

// BuildAndSolveCtx is BuildAndSolve with cooperative cancellation: once ctx
// is done no further cell is materialized or solved, and the call returns
// (nil, nil, ctx.Err()). The in-flight cells finish first, so cancellation
// latency is bounded by one cell's five solves.
func BuildAndSolveCtx(ctx context.Context, records []iclab.Record, cfg BuildConfig) ([]*Instance, []Outcome, error) {
	cfg.fillDefaults()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b := newBatch(records, &cfg)
	insts := make([]*Instance, b.first[len(b.cells)])
	outs := make([]Outcome, len(insts))
	if err := parallel.ForEachCtx(ctx, cfg.Workers, len(b.cells), func(i int) {
		b.build(i, func(j int, in *Instance) {
			if buildSolveObserver != nil {
				buildSolveObserver("materialize", j)
			}
			insts[j] = in
			outs[j] = Solve(in)
			if buildSolveObserver != nil {
				buildSolveObserver("solve", j)
			}
		})
	}); err != nil {
		return nil, nil, err
	}
	return insts, outs, nil
}

// Outcome is the solved result for one instance (§3.2's trichotomy).
type Outcome struct {
	Inst  *Instance
	Class sat.Classification

	// Censors holds the True-assigned ASes of a unique solution.
	Censors []topology.ASN
	// Potential holds, for multi-solution CNFs, the ASes not False in every
	// model (the paper's potential censors).
	Potential []topology.ASN
	// Eliminated counts definite non-censors in the multi-solution case.
	Eliminated int
	// TotalVars is the number of distinct ASes in the CNF.
	TotalVars int
}

// ReductionFrac returns the candidate-set reduction fraction for
// multi-solution CNFs (Figure 2's quantity): Eliminated / TotalVars, the
// fraction of the CNF's candidate ASes proven definite non-censors.
//
// Units and range: a dimensionless fraction in [0, 1]. 0 means no
// candidate was eliminated (every AS in the CNF is still a potential
// censor — Figure 2's "no elimination" mass); 1 would mean every candidate
// was eliminated, which cannot arise from a Multiple outcome (some
// variable is True in some model) and so only appears in degenerate
// hand-built outcomes. A CNF with zero candidates (TotalVars == 0)
// reports 0 rather than NaN.
//
// The quantity is only meaningful for Class == sat.Multiple: Unique
// outcomes identify censors exactly (reduction is moot) and Unsat
// outcomes eliminate nothing. For other classes the method returns
// whatever Eliminated/TotalVars hold — 0 under Solve's population rules,
// which never set Eliminated outside the Multiple case.
func (o Outcome) ReductionFrac() float64 {
	if o.TotalVars == 0 {
		return 0
	}
	return float64(o.Eliminated) / float64(o.TotalVars)
}

// Solve classifies one instance (§3.2's 0/1/2+ trichotomy) and extracts
// its censors or potential censors. It decides in linear time what the
// paper hands to a SAT solver, because the CNF holds only two kinds of
// clause (CNFOf): a negative unit clause for each AS on a clean path, and
// an all-positive clause for each censored path. Let N be the negated
// variables, 1..negated, and R the rest.
//
//   - Every model sets N false. So the CNF has 0 models iff some censored
//     path has all of its distinct ASes in N (an empty path included).
//   - Otherwise setting all of R true is a model, and a model stays one
//     when more of R is set true. A model with some r in R false exists
//     iff no censored path has r as its only R member (counting distinct
//     ASes: a path may repeat one). So the model is unique iff every r in
//     R is the only R member of some censored path, and then Censors = R.
//   - Otherwise there are 2+ models and every r in R is true in the
//     all-of-R one, so Potential = R and Eliminated = |N|.
//
// R is listed in variable order and shares Vars' backing array, and
// Censors and Potential stay nil when empty: every Outcome is field for
// field the one that sat.Classify and sat.PotentialTrue yield on
// CNFOf(in), which the tests check.
func Solve(in *Instance) Outcome {
	out := Outcome{Inst: in, TotalVars: len(in.Vars)}
	sole, ok := split(in)
	if !ok {
		out.Class = sat.Unsat
		return out
	}
	var free []topology.ASN
	if r := in.Vars[in.negated:]; len(r) > 0 {
		free = r[:len(r):len(r)]
	}
	if !slices.Contains(sole[in.negated+1:], false) {
		out.Class, out.Censors = sat.Unique, free
	} else {
		out.Class, out.Potential, out.Eliminated = sat.Multiple, free, in.negated
	}
	return out
}

// split reads the N/R split of Solve's doc off an instance in one pass
// over its censored paths: sole[v] (indexed by variable, index 0 unused)
// marks an R variable that is the only R member, counting distinct ASes,
// of some censored path. ok is false when some censored path has no R
// member at all, so the CNF has no model; sole is then incomplete.
func split(in *Instance) (sole []bool, ok bool) {
	n := int32(in.negated)
	sole = make([]bool, len(in.Vars)+1)
	off := 0
	for _, p := range in.PositivePaths {
		only := int32(0) // the path's one variable outside N; -1 once it has two
		for _, v := range in.censored[off : off+len(p)] {
			switch {
			case v <= n || v == only || only < 0:
			case only == 0:
				only = v
			default:
				only = -1
			}
		}
		off += len(p)
		switch {
		case only == 0:
			return sole, false
		case only > 0:
			sole[only] = true
		}
	}
	return sole, true
}

// CountModels counts the instance's models up to cap: the return is the
// model count, or cap when there are at least cap. Figure 4 buckets the
// no-churn ablation's CNFs by CountModels(in, 5). Like Solve it needs no
// search, for the same CNF shape. With N and R as in Solve's doc:
//
//   - Every model sets N false.
//   - Every R variable that is the only R member of some censored path is
//     forced true. Call the other d R variables free.
//   - If some censored path has no R member, there are 0 models.
//   - Otherwise all of R true is a model, and so is each assignment that
//     sets one free variable false and the rest of R true: every censored
//     path holding that variable has a second R member, still true. So
//     there are at least 1+d models, and the count is cap when 1+d ≥ cap.
//   - Otherwise d ≤ cap−2, and CountModels checks each of the 2^d
//     assignments of the free variables against the censored paths that
//     hold no forced variable.
//
// Every count equals sat.CountModels(CNFOf(in), cap), which the tests
// check. CountModels panics unless 1 ≤ cap ≤ 64 (2^(cap−2) bounds its
// work, so a cap much above Figure 4's 5 is costly anyway).
func CountModels(in *Instance, cap int) int {
	if cap <= 0 || cap > 64 {
		panic("tomo: CountModels cap must be in 1..64")
	}
	sole, ok := split(in)
	if !ok {
		return 0
	}
	// bit[v] is free variable v's bit in an assignment mask; forced and
	// negated variables keep 0. Counting stops once 1+d reaches cap.
	bit := make([]uint64, len(sole))
	d := 0
	for v := in.negated + 1; v < len(sole) && 1+d < cap; v++ {
		if !sole[v] {
			bit[v] = 1 << d
			d++
		}
	}
	if 1+d >= cap {
		return cap
	}
	// need holds, per censored path with no forced variable, the mask of
	// its free variables; an assignment (the mask of free variables set
	// true) is a model's iff it meets every one.
	var need []uint64
	off := 0
	for _, p := range in.PositivePaths {
		var m uint64
		forced := false
		for _, v := range in.censored[off : off+len(p)] {
			m |= bit[v]
			forced = forced || sole[v]
		}
		off += len(p)
		if !forced {
			need = append(need, m)
		}
	}
	n := 0
	for a := uint64(0); a < 1<<d; a++ {
		if !slices.ContainsFunc(need, func(m uint64) bool { return m&a == 0 }) {
			n++
		}
	}
	return min(n, cap)
}

// SolveAll solves every instance concurrently, preserving input order.
// Callers that also build the instances should prefer BuildAndSolve, which
// streams solving into construction.
func SolveAll(insts []*Instance) []Outcome {
	out := make([]Outcome, len(insts))
	parallel.ForEach(0, len(insts), func(i int) {
		out[i] = Solve(insts[i])
	})
	return out
}

// IdentifiedCensor aggregates everything learned about one censoring AS
// from unique-solution CNFs.
type IdentifiedCensor struct {
	ASN   topology.ASN
	Kinds anomaly.Set // anomaly kinds the AS was identified for
	URLs  map[string]bool
	CNFs  int // unique-solution CNFs naming this AS
}

// IdentifyCensors unions the censors named by unique-solution outcomes —
// the paper's headline "65 censoring ASes" set. Only outcomes with
// Class == sat.Unique contribute; Multiple outcomes' potential censors and
// Unsat outcomes never name anyone.
//
// minCNFs is the corroboration threshold, counted in unique-solution CNFs
// naming the AS (the IdentifiedCensor.CNFs field): an AS enters the result
// only when at least minCNFs distinct (URL, time slice, anomaly kind) CNFs
// each have it in their unique model. The threshold filters one-off
// identifications: measurement noise occasionally fabricates a unique
// solution blaming an innocent AS, but real censors are re-identified
// across many slices and URLs; requiring at least minCNFs corroborating
// CNFs (2 is a good default; the full pipeline uses 8) removes most
// fabrications. Pass 1 (or anything <= 1) for the paper's unfiltered
// behaviour, where a single CNF suffices.
//
// The boundary is inclusive: an AS whose corroboration count equals
// minCNFs exactly is kept — the threshold reads "at least minCNFs", not
// "more than". Pinned by TestIdentifyCensorsThresholdBoundary.
func IdentifyCensors(outcomes []Outcome, minCNFs int) map[topology.ASN]*IdentifiedCensor {
	found := map[topology.ASN]*IdentifiedCensor{}
	for _, o := range outcomes {
		if o.Class != sat.Unique {
			continue
		}
		for _, as := range o.Censors {
			c := found[as]
			if c == nil {
				c = &IdentifiedCensor{ASN: as, URLs: map[string]bool{}}
				found[as] = c
			}
			c.Kinds = c.Kinds.Add(o.Inst.Key.Kind)
			c.URLs[o.Inst.Key.URL] = true
			c.CNFs++
		}
	}
	for asn, c := range found {
		if c.CNFs < minCNFs {
			delete(found, asn)
		}
	}
	return found
}
