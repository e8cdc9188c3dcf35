package tomo

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/parallel"
	"churntomo/internal/sat"
	"churntomo/internal/timeslice"
	"churntomo/internal/topology"
	"churntomo/internal/traceroute"
)

// Key identifies one CNF instance.
type Key struct {
	URL   string
	Slice timeslice.Key
	Kind  anomaly.Kind
}

// Instance is one constructed CNF with its AS-to-variable interning and the
// provenance the leakage analysis needs.
type Instance struct {
	Key Key
	CNF *sat.CNF
	// Vars maps variable v (1-based) to Vars[v-1].
	Vars []topology.ASN

	// PositivePaths are the distinct AS paths of censored observations.
	PositivePaths [][]topology.ASN
	// NegativePaths are the distinct AS paths of clean observations.
	NegativePaths [][]topology.ASN
	// Measurements counts records folded into this CNF.
	Measurements int
}

// VarOf returns the CNF variable for an AS, or 0 if absent.
func (in *Instance) VarOf(as topology.ASN) int {
	for i, a := range in.Vars {
		if a == as {
			return i + 1
		}
	}
	return 0
}

// BuildConfig controls CNF construction.
type BuildConfig struct {
	// Granularities to build; nil = all four (day, week, month, year).
	Granularities []timeslice.Granularity
	// Kinds to build; nil = all five anomaly kinds.
	Kinds []anomaly.Kind
	// Workers bounds the parallelism of clause grouping, materialization
	// and (in BuildAndSolve) solving. 0 uses GOMAXPROCS, 1 forces serial
	// execution. The result is identical at any setting.
	Workers int
}

func (c *BuildConfig) fillDefaults() {
	if c.Granularities == nil {
		c.Granularities = timeslice.All
	}
	if c.Kinds == nil {
		c.Kinds = anomaly.Kinds
	}
}

// pathKeyer folds AS paths into comparable string keys, interning them for
// the lifetime of one grouping chunk. The scratch buffer is reused across
// calls and the map probe on a []byte-backed string is allocation-free, so
// a path seen before costs zero allocations — and measurement records
// repeat the same handful of paths thousands of times. Keys are the same
// big-endian byte strings the grouping always used, so sort order (and
// therefore clause order and every downstream result) is unchanged.
type pathKeyer struct {
	scratch []byte
	seen    map[string]string
}

func (pk *pathKeyer) key(p []topology.ASN) string {
	b := pk.scratch[:0]
	for _, a := range p {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	pk.scratch = b
	if s, ok := pk.seen[string(b)]; ok {
		return s
	}
	s := string(b)
	pk.seen[s] = s
	return s
}

// builderGroup accumulates one CNF's observations before materialization.
type builderGroup struct {
	pos map[string][]topology.ASN // distinct censored paths
	neg map[string][]topology.ASN // distinct clean paths
	n   int
}

// groupChunk folds one contiguous slice of records into per-key builder
// groups, applying the paper's record-elimination rules (already reflected
// in Record.Fail) and its time/URL/anomaly splitting. The path key is
// computed once per record — not once per (granularity, kind) cell — and
// interned across the chunk.
func groupChunk(records []iclab.Record, cfg *BuildConfig) map[Key]*builderGroup {
	groups := map[Key]*builderGroup{}
	keyer := pathKeyer{seen: map[string]string{}}
	for i := range records {
		r := &records[i]
		if r.Fail != traceroute.OK {
			continue // inconclusive path: eliminated (§3.1)
		}
		pk := keyer.key(r.ASPath)
		for _, g := range cfg.Granularities {
			slice := timeslice.KeyFor(g, r.At)
			for _, k := range cfg.Kinds {
				key := Key{URL: r.URL, Slice: slice, Kind: k}
				grp := groups[key]
				if grp == nil {
					grp = &builderGroup{pos: map[string][]topology.ASN{}, neg: map[string][]topology.ASN{}}
					groups[key] = grp
				}
				grp.n++
				if r.Anomalies.Has(k) {
					grp.pos[pk] = r.ASPath
				} else {
					grp.neg[pk] = r.ASPath
				}
			}
		}
	}
	return groups
}

// mergeGroups folds src into dst. Grouping is a commutative fold (distinct
// path sets union, measurement counts add), so merging record chunks in any
// order reconstructs exactly the serial grouping.
func mergeGroups(dst, src map[Key]*builderGroup) {
	for key, g := range src {
		d := dst[key]
		if d == nil {
			dst[key] = g
			continue
		}
		d.n += g.n
		for pk, p := range g.pos {
			d.pos[pk] = p
		}
		for pk, p := range g.neg {
			d.neg[pk] = p
		}
	}
}

// buildGroups shards the records across cfg.Workers, groups each shard
// independently, and merges the shard maps. Cancellation is honored at
// chunk granularity; on a non-nil error the partial grouping is discarded.
func buildGroups(ctx context.Context, records []iclab.Record, cfg *BuildConfig) (map[Key]*builderGroup, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Grouping a chunk is cheap; below this size the fan-out costs more
	// than it saves.
	const minChunk = 2048
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(records) + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		return groupChunk(records, cfg), nil
	}
	parts := make([]map[Key]*builderGroup, workers)
	chunk := (len(records) + workers - 1) / workers
	if err := parallel.ForEachCtx(ctx, workers, workers, func(w int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(records) {
			hi = len(records)
		}
		parts[w] = groupChunk(records[lo:hi], cfg)
	}); err != nil {
		return nil, err
	}
	groups := parts[0]
	for _, part := range parts[1:] {
		mergeGroups(groups, part)
	}
	return groups, nil
}

// keyLess is the deterministic instance order: URL, granularity, slice
// index, anomaly kind.
func keyLess(a, b Key) bool {
	if a.URL != b.URL {
		return a.URL < b.URL
	}
	if a.Slice.Gran != b.Slice.Gran {
		return a.Slice.Gran < b.Slice.Gran
	}
	if a.Slice.Index != b.Slice.Index {
		return a.Slice.Index < b.Slice.Index
	}
	return a.Kind < b.Kind
}

// solvableKeys lists the groups that become CNFs, in keyLess order. A
// slice that saw no anomaly at all would give a trivially unique CNF (the
// all-False model) with no localization signal, so only groups with at
// least one censored path qualify — matching the paper's Figure 4, where
// removing churn collapses most CNFs to 5+ solutions (impossible if
// anomaly-free CNFs dominated the population).
func solvableKeys(groups map[Key]*builderGroup) []Key {
	keys := make([]Key, 0, len(groups))
	for key, grp := range groups {
		if len(grp.pos) == 0 {
			continue
		}
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// Build constructs CNF instances from measurement records. Grouping and
// materialization are sharded across cfg.Workers; the result is sorted
// deterministically and identical at any worker count.
func Build(records []iclab.Record, cfg BuildConfig) []*Instance {
	cfg.fillDefaults()
	//churnvet:ok ctxflow -- Build is the ctx-free kernel entry (benchmarks and analysis.Figure4 call it synchronously); BuildAndSolveCtx is the cancellable path
	groups, _ := buildGroups(context.Background(), records, &cfg) //churnvet:ok errflow -- buildGroups can only fail through ctx cancellation, and Background never cancels
	keys := solvableKeys(groups)
	out := make([]*Instance, len(keys))
	parallel.ForEach(cfg.Workers, len(keys), func(i int) {
		out[i] = materialize(keys[i], groups[keys[i]])
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
// each key's materialize and after its solve. It is a test seam pinning
// that solving streams into construction (each worker solves the CNF it
// just built before materializing the next) rather than waiting behind a
// global build barrier. Always nil outside tests; callbacks may run
// concurrently when Workers > 1.
var buildSolveObserver func(event string, key int)

// BuildAndSolveCtx is BuildAndSolve with cooperative cancellation: once ctx
// is done no further CNF is grouped, materialized or solved, and the call
// returns (nil, nil, ctx.Err()). The in-flight CNFs finish first, so
// cancellation latency is bounded by one solve.
func BuildAndSolveCtx(ctx context.Context, records []iclab.Record, cfg BuildConfig) ([]*Instance, []Outcome, error) {
	cfg.fillDefaults()
	groups, err := buildGroups(ctx, records, &cfg)
	if err != nil {
		return nil, nil, err
	}
	keys := solvableKeys(groups)
	insts := make([]*Instance, len(keys))
	outs := make([]Outcome, len(keys))
	if err := parallel.ForEachCtx(ctx, cfg.Workers, len(keys), func(i int) {
		in := materialize(keys[i], groups[keys[i]])
		if buildSolveObserver != nil {
			buildSolveObserver("materialize", i)
		}
		insts[i] = in
		outs[i] = Solve(in)
		if buildSolveObserver != nil {
			buildSolveObserver("solve", i)
		}
	}); err != nil {
		return nil, nil, err
	}
	return insts, outs, nil
}

// matScratch is the reusable working state of materialize: the interning
// and negation maps are cleared (not reallocated) between instances, and
// the literal and key slices keep their capacity. Everything that outlives
// the call (the Instance, its Vars, the CNF) is still freshly allocated.
type matScratch struct {
	varOf   map[topology.ASN]int
	negated map[topology.ASN]bool
	lits    []sat.Lit
	keys    []string
}

var matScratchPool = sync.Pool{New: func() any {
	return &matScratch{varOf: map[topology.ASN]int{}, negated: map[topology.ASN]bool{}}
}}

// sortedKeys collects and sorts m's keys into the scratch key slice; the
// returned slice is valid until the next call.
func (sc *matScratch) sortedKeys(m map[string][]topology.ASN) []string {
	keys := sc.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sc.keys = keys
	return keys
}

// materialize turns accumulated paths into a CNF. Duplicate clauses are
// already deduplicated by distinct-path bookkeeping; conflicting
// observations of the same path (censored and clean) coexist and make the
// CNF unsatisfiable, which is the intended §3.2 semantics.
func materialize(key Key, grp *builderGroup) *Instance {
	in := &Instance{Key: key, CNF: &sat.CNF{}, Measurements: grp.n}
	sc := matScratchPool.Get().(*matScratch)
	clear(sc.varOf)
	clear(sc.negated)
	intern := func(as topology.ASN) sat.Lit {
		v, ok := sc.varOf[as]
		if !ok {
			v = len(in.Vars) + 1
			in.Vars = append(in.Vars, as)
			sc.varOf[as] = v
		}
		return sat.Lit(int32(v))
	}

	// Deterministic clause order: sort path keys. Negative paths expand to
	// unit clauses; an AS negated by several clean paths still needs only
	// one unit clause.
	in.NegativePaths = make([][]topology.ASN, 0, len(grp.neg))
	for _, k := range sc.sortedKeys(grp.neg) {
		path := grp.neg[k]
		in.NegativePaths = append(in.NegativePaths, path)
		for _, as := range path {
			if !sc.negated[as] {
				sc.negated[as] = true
				in.CNF.AddClause(intern(as).Neg())
			}
		}
	}
	in.PositivePaths = make([][]topology.ASN, 0, len(grp.pos))
	for _, k := range sc.sortedKeys(grp.pos) {
		path := grp.pos[k]
		in.PositivePaths = append(in.PositivePaths, path)
		lits := sc.lits[:0]
		for _, as := range path {
			lits = append(lits, intern(as))
		}
		sc.lits = lits
		in.CNF.AddClause(lits...)
	}
	matScratchPool.Put(sc)
	return in
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
// paper hands to a SAT solver, because materialize emits only two kinds of
// clause: a negative unit clause for each AS on a clean path, and an
// all-positive clause for each censored path. Let N be the variables with
// a negative unit clause and R the rest.
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
// R is listed in variable order, and Censors and Potential stay nil when
// empty: every Outcome is field for field the one that sat.Classify and
// sat.PotentialTrue yield on the same CNF, which the tests check. Solve
// panics on a negative literal outside a unit clause, a shape no path
// produces.
func Solve(in *Instance) Outcome {
	out := Outcome{Inst: in, TotalVars: len(in.Vars)}
	nv := in.CNF.NumVars
	negated := make([]bool, nv+1)
	for _, cl := range in.CNF.Clauses {
		if len(cl) == 1 && cl[0] < 0 {
			negated[cl[0].Var()] = true
		}
	}
	// sole[v]: v is the only variable outside N on some censored path.
	sole := make([]bool, nv+1)
	for _, cl := range in.CNF.Clauses {
		if len(cl) == 1 && cl[0] < 0 {
			continue
		}
		only := 0 // the path's one variable outside N; -1 once it has two
		for _, l := range cl {
			v := l.Var()
			switch {
			case l < 0:
				panic("tomo: negative literal in a censored-path clause")
			case negated[v] || v == only || only < 0:
			case only == 0:
				only = v
			default:
				only = -1
			}
		}
		switch {
		case only == 0:
			out.Class = sat.Unsat
			return out
		case only > 0:
			sole[only] = true
		}
	}
	var free []topology.ASN
	unique := true
	for v := 1; v <= nv; v++ {
		if !negated[v] {
			free = append(free, in.Vars[v-1])
			unique = unique && sole[v]
		}
	}
	if unique {
		out.Class, out.Censors = sat.Unique, free
	} else {
		out.Class, out.Potential, out.Eliminated = sat.Multiple, free, nv-len(free)
	}
	return out
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
