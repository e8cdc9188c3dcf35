package tomo

// This file is the incremental CNF engine behind the streaming localizer
// (internal/stream). Where Build/BuildAndSolve fold the entire record set in
// one shot, Incremental ingests records in day-labelled batches, keeps the
// per-(URL, slice, kind) builder groups alive between solves, and re-solves
// only the groups a batch actually touched. A day entering a sliding window
// dirties just its own day slice plus the enclosing week/month/year slices;
// everything else is served from the previous window's cached outcome. A
// dirty key is re-materialized from its resident day groups and classified
// by Solve, exactly as the batch engine would, so retracting a day needs no
// state beyond the day groups themselves.
//
// The contract mirrors the batch engine exactly: after any sequence of
// AddDay/RemoveDay calls, BuildAndSolve returns the same instances and
// outcomes (field for field, in the same keyLess order) that the batch
// BuildAndSolve would return over the currently-held records. The streaming
// regression tests pin that equivalence.

import (
	"context"
	"maps"
	"sort"

	"churntomo/internal/iclab"
	"churntomo/internal/parallel"
	"churntomo/internal/topology"
)

// keyState is everything Incremental holds for one CNF key.
type keyState struct {
	// days maps each resident day batch to its grouped contribution.
	days map[int]*builderGroup
	// inst/out cache the last solve; valid until the key is dirtied.
	inst   *Instance
	out    Outcome
	cached bool
}

// Incremental is the windowed counterpart of Build/BuildAndSolve. Records
// enter and leave in day-labelled batches; BuildAndSolve re-solves only the
// keys touched since the previous call and serves the rest from cache.
// Incremental is not safe for concurrent use, but BuildAndSolve itself
// parallelizes across keys.
type Incremental struct {
	cfg   BuildConfig
	keys  map[Key]*keyState
	dirty map[Key]bool
	// byDay indexes which keys hold each day batch's contribution, so
	// RemoveDay touches only the keys a day actually reached (its own day
	// slices plus enclosing week/month/year slices) instead of scanning
	// every resident key.
	byDay map[int][]Key
}

// NewIncremental returns an empty incremental builder. The config's
// granularities and kinds match Build's; Workers bounds BuildAndSolve's
// per-key parallelism.
func NewIncremental(cfg BuildConfig) *Incremental {
	cfg.fillDefaults()
	return &Incremental{cfg: cfg, keys: map[Key]*keyState{}, dirty: map[Key]bool{}, byDay: map[int][]Key{}}
}

// AddDay ingests one day-labelled record batch. The label is the removal
// handle for RemoveDay; each label may be added once (re-adding after
// removal is allowed). Records are grouped exactly as Build groups them;
// every touched key is marked dirty.
func (inc *Incremental) AddDay(day int, records []iclab.Record) {
	for key, grp := range groupChunk(records, &inc.cfg) {
		st := inc.keys[key]
		if st == nil {
			st = &keyState{days: map[int]*builderGroup{}}
			inc.keys[key] = st
		}
		if _, dup := st.days[day]; dup {
			panic("tomo: AddDay called twice with the same day label")
		}
		st.days[day] = grp
		inc.dirty[key] = true
		// byDay is consumed strictly as a set: RemoveDay marks members
		// dirty and deletes them, and rebuilds walk the sorted key index,
		// so insertion order never reaches any output.
		inc.byDay[day] = append(inc.byDay[day], key) //churnvet:ok maporder -- byDay is a retraction set; order never escapes (RemoveDay marks dirty/deletes only)
	}
}

// RemoveDay retracts a previously added day batch. Keys left with no
// resident days are dropped entirely; the rest are marked dirty. Removing
// an unknown label is a no-op.
func (inc *Incremental) RemoveDay(day int) {
	for _, key := range inc.byDay[day] {
		st := inc.keys[key]
		if st == nil {
			continue
		}
		if _, ok := st.days[day]; !ok {
			continue
		}
		delete(st.days, day)
		if len(st.days) == 0 {
			delete(inc.keys, key)
			delete(inc.dirty, key)
			continue
		}
		inc.dirty[key] = true
	}
	delete(inc.byDay, day)
}

// IncStats reports how much work one BuildAndSolve call actually did.
type IncStats struct {
	// Solved counts keys re-materialized and re-solved (dirty keys).
	Solved int
	// Reused counts keys served from the previous call's cache.
	Reused int
}

// solveKey re-materializes one dirty key from its resident day groups and
// re-solves it, refreshing the cache.
func (inc *Incremental) solveKey(key Key, st *keyState) {
	union := &builderGroup{pos: map[string][]topology.ASN{}, neg: map[string][]topology.ASN{}}
	for _, c := range st.days {
		union.n += c.n
		maps.Copy(union.pos, c.pos)
		maps.Copy(union.neg, c.neg)
	}
	inst := materialize(key, union)
	st.inst, st.out, st.cached = inst, Solve(inst), true
}

// BuildAndSolve returns the instances and outcomes for the currently-held
// records, identical (and identically ordered) to the batch BuildAndSolve
// over the same records. Only keys dirtied since the previous call are
// re-solved — across a sliding-window replay that is the small minority of
// keys a day boundary touches — and the per-key work runs on cfg.Workers.
func (inc *Incremental) BuildAndSolve() ([]*Instance, []Outcome, IncStats) {
	insts, outs, stats, _ := inc.BuildAndSolveCtx(context.Background())
	return insts, outs, stats
}

// BuildAndSolveCtx is BuildAndSolve with cooperative cancellation: once ctx
// is done no further dirty key is re-solved and the call returns ctx.Err().
// Keys solved before the cancellation keep their refreshed caches and the
// remaining keys stay dirty, so a later call resumes exactly the leftover
// work — cancellation never corrupts the incremental state.
func (inc *Incremental) BuildAndSolveCtx(ctx context.Context) ([]*Instance, []Outcome, IncStats, error) {
	keys := make([]Key, 0, len(inc.keys))
	for key, st := range inc.keys {
		if !inc.hasSignal(st) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	var stats IncStats
	work := make([]Key, 0, len(inc.dirty))
	for _, key := range keys {
		if inc.dirty[key] || !inc.keys[key].cached {
			work = append(work, key)
		}
	}
	if err := parallel.ForEachCtx(ctx, inc.cfg.Workers, len(work), func(i int) {
		inc.solveKey(work[i], inc.keys[work[i]])
	}); err != nil {
		// Solved keys are cached but stay marked dirty; re-solving a clean
		// key is idempotent, so the next call just redoes a little work.
		return nil, nil, stats, err
	}
	stats.Solved = len(work)
	stats.Reused = len(keys) - len(work)
	inc.dirty = map[Key]bool{}

	insts := make([]*Instance, len(keys))
	outs := make([]Outcome, len(keys))
	for i, key := range keys {
		st := inc.keys[key]
		insts[i], outs[i] = st.inst, st.out
	}
	return insts, outs, stats, nil
}

// hasSignal applies the solvable-key filter: a key becomes a CNF only when
// some resident day observed a censored path.
func (inc *Incremental) hasSignal(st *keyState) bool {
	for _, c := range st.days {
		if len(c.pos) > 0 {
			return true
		}
	}
	return false
}
