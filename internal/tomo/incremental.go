package tomo

// This file is the incremental CNF engine behind the streaming localizer
// (internal/stream). Where Build/BuildAndSolve fold the entire record set in
// one shot, Incremental ingests records in day-labelled batches, keeps each
// (URL, slice) cell's per-day parts alive between solves, and re-solves
// only the cells a batch actually touched. A day entering a sliding window
// dirties just its own day cells plus the enclosing week/month/year cells;
// everything else is served from the previous window's cached instances
// and outcomes. A dirty cell is rebuilt from one union of its resident day
// parts, which all of its kinds share, and each kind is classified by
// Solve exactly as the batch engine would, so retracting a day needs no
// state beyond the day parts themselves.
//
// The contract mirrors the batch engine exactly: after any sequence of
// AddDay/RemoveDay calls, BuildAndSolveCtx returns the same instances and
// outcomes (field for field, in the same order) that the batch
// BuildAndSolve would return over the currently-held records. The streaming
// regression tests pin that equivalence.

import (
	"context"
	"math/bits"
	"slices"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/parallel"
)

// incCell is everything Incremental holds for one (URL, slice) cell.
type incCell struct {
	key cellKey
	// days and parts are the resident day labels and each day's part.
	days  []int
	parts []*part
	// signal ORs the parts' signals: the kinds some resident day saw
	// censored.
	signal uint16
	// dirty marks a cell whose parts changed since its last solve; inst
	// and out cache that solve per kind.
	dirty bool
	inst  [anomaly.NumKinds]*Instance
	out   [anomaly.NumKinds]Outcome
}

// Incremental is the windowed counterpart of Build/BuildAndSolve. Records
// enter and leave in day-labelled batches; BuildAndSolveCtx re-solves only
// the cells touched since the previous call and serves the rest from cache.
// Incremental is not safe for concurrent use, but BuildAndSolveCtx itself
// parallelizes across cells.
//
// Memory: the path table keeps every path ever added, including those
// whose days were all removed: its arrays are indexed by the stream
// table's path IDs and hold each path's AS IDs beside the record's own
// path array, which they share, so they grow with the distinct paths of
// the whole stream, not of the window. So does the URL table. The 120-day
// replay world of the benchmark holds 6,781 paths (149,173 conclusive
// records, 80 URLs, 4,094 cells). The day batches must come from one
// numbered table (iclab.NumberPaths), as a replay's day shards do.
type Incremental struct {
	cfg   BuildConfig
	kinds uint16
	paths pathTable
	urls  interner
	cells map[cellKey]*incCell
	// byDay indexes the cells each day batch reached (its own day cells
	// plus the enclosing week/month/year cells), so RemoveDay touches only
	// those instead of scanning every resident cell.
	byDay map[int][]*incCell

	// sorted lists the cells live at the last BuildAndSolveCtx in
	// compareCells order, and added the cells AddDay created since; the
	// next call merges them (see mergeCells) into spare's storage. work is
	// the storage of a call's dirty cells.
	sorted, added, spare, work []*incCell
}

// NewIncremental returns an empty incremental builder. The config's
// granularities and kinds match Build's; Workers bounds BuildAndSolveCtx's
// per-cell parallelism.
func NewIncremental(cfg BuildConfig) *Incremental {
	cfg.fillDefaults()
	return &Incremental{
		cfg: cfg, kinds: kindMask(cfg.Kinds),
		paths: newPathTable(), urls: newInterner(),
		cells: map[cellKey]*incCell{}, byDay: map[int][]*incCell{},
	}
}

// AddDay ingests one day-labelled record batch. The label is the removal
// handle for RemoveDay; each label may be added once (re-adding after
// removal is allowed). Records are folded exactly as Build folds them;
// every touched cell is marked dirty.
func (inc *Incremental) AddDay(day int, records []iclab.Record) {
	if _, dup := inc.byDay[day]; dup {
		panic("tomo: AddDay called twice with the same day label")
	}
	for _, p := range fold(records, inc.cfg.Granularities, &inc.paths, &inc.urls) {
		c := inc.cells[p.key]
		if c == nil {
			c = &incCell{key: p.key}
			inc.cells[p.key] = c
			inc.added = append(inc.added, c)
		}
		c.days = append(c.days, day)
		c.parts = append(c.parts, p)
		c.signal |= p.signal
		c.dirty = true
		inc.byDay[day] = append(inc.byDay[day], c)
	}
}

// RemoveDay retracts a previously added day batch. Cells left with no
// resident days are dropped entirely (the next BuildAndSolveCtx drops
// them from its sorted list too); the rest are marked dirty. Removing an
// unknown label is a no-op.
func (inc *Incremental) RemoveDay(day int) {
	for _, c := range inc.byDay[day] {
		i := slices.Index(c.days, day)
		c.days = slices.Delete(c.days, i, i+1)
		c.parts = slices.Delete(c.parts, i, i+1)
		if len(c.days) == 0 {
			delete(inc.cells, c.key)
			continue
		}
		c.signal = 0
		for _, p := range c.parts {
			c.signal |= p.signal
		}
		c.dirty = true
	}
	delete(inc.byDay, day)
}

// IncStats reports how much work one BuildAndSolveCtx call actually did,
// counted in CNFs: one per (cell, kind) that becomes an instance.
type IncStats struct {
	// Solved counts CNFs re-materialized and re-solved (those of dirty
	// cells).
	Solved int
	// Reused counts CNFs served from the previous call's cache.
	Reused int
}

// solveCell rebuilds one dirty cell from its resident day parts and
// re-solves each of its kinds, refreshing the cache.
func (inc *Incremental) solveCell(c *incCell) {
	c.inst, c.out = [anomaly.NumKinds]*Instance{}, [anomaly.NumKinds]Outcome{}
	buildCell(c.parts, inc.kinds, &inc.paths, &inc.urls, func(in *Instance) {
		c.inst[in.Key.Kind], c.out[in.Key.Kind] = in, Solve(in)
	})
}

// BuildAndSolveCtx returns the instances and outcomes for the
// currently-held records, identical (and identically ordered) to the batch
// BuildAndSolve over the same records. Only cells dirtied since the
// previous call are re-solved — across a sliding-window replay that is the
// small minority of cells a day boundary touches — and the per-cell work
// runs on cfg.Workers.
//
// Once ctx is done no further dirty cell is re-solved and the call returns
// ctx.Err(). Cells solved before the cancellation keep their refreshed
// caches and every cell stays dirty, so a later call resumes the leftover
// work — cancellation never corrupts the incremental state.
func (inc *Incremental) BuildAndSolveCtx(ctx context.Context) ([]*Instance, []Outcome, IncStats, error) {
	inc.paths.rerank()
	inc.urls.rerank()
	inc.mergeCells()

	var stats IncStats
	work := inc.work[:0]
	total := 0
	for _, c := range inc.sorted {
		kinds := bits.OnesCount16(c.signal & inc.kinds)
		total += kinds
		if c.dirty && kinds > 0 {
			work = append(work, c)
			stats.Solved += kinds
		}
	}
	inc.work = work
	if err := parallel.ForEachCtx(ctx, inc.cfg.Workers, len(work), func(i int) {
		inc.solveCell(work[i])
	}); err != nil {
		// Solved cells are cached but stay marked dirty; re-solving a
		// clean cell is idempotent, so the next call just redoes a little
		// work.
		return nil, nil, IncStats{}, err
	}
	stats.Reused = total - stats.Solved
	for _, c := range inc.sorted {
		c.dirty = false
	}

	insts := make([]*Instance, 0, total)
	outs := make([]Outcome, 0, total)
	for _, c := range inc.sorted {
		for k := range c.inst {
			if c.signal&inc.kinds&(1<<k) != 0 {
				insts = append(insts, c.inst[k])
				outs = append(outs, c.out[k])
			}
		}
	}
	return insts, outs, stats, nil
}

// mergeCells brings sorted up to date with the cells AddDay and RemoveDay
// changed since the last call: it drops the cells left with no resident
// day, sorts the cells created since among themselves and merges them in,
// so a window sorts only its new cells, not every live one. The merge is
// sound because interner.rerank never reorders URLs it has already
// ranked, so cells already sorted keep their relative order. A key
// names one live cell, so no two live cells compare equal.
func (inc *Incremental) mergeCells() {
	byKey := func(x, y *incCell) int { return compareCells(x.key, y.key, inc.urls.rank) }
	live := func(c *incCell) bool { return len(c.days) > 0 }
	added := slices.DeleteFunc(inc.added, func(c *incCell) bool { return !live(c) })
	slices.SortFunc(added, byKey)
	merged := inc.spare[:0]
	old := inc.sorted
	for len(old) > 0 || len(added) > 0 {
		switch {
		case len(old) > 0 && !live(old[0]):
			old = old[1:]
		case len(added) == 0 || len(old) > 0 && byKey(old[0], added[0]) < 0:
			merged, old = append(merged, old[0]), old[1:]
		default:
			merged, added = append(merged, added[0]), added[1:]
		}
	}
	clear(inc.sorted) // drop the dead cells' last references
	inc.sorted, inc.spare, inc.added = merged, inc.sorted[:0], inc.added[:0]
}
