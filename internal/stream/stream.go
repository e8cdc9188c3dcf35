package stream

import (
	"context"
	"fmt"
	"sort"

	"churntomo/internal/iclab"
	"churntomo/internal/tomo"
	"churntomo/internal/topology"
)

// Config parameterizes a streaming localization.
type Config struct {
	// Window is how many most-recent days each localization covers. 0 means
	// cumulative: every window starts at day 0 and only the end advances,
	// so the final window reproduces the batch pipeline exactly.
	Window int
	// Stride is how many days the window end advances between emitted
	// windows; default 1 (a window per day once the first fills).
	Stride int
	// MinCNFs is the per-window corroboration threshold handed to
	// tomo.IdentifyCensors; 0 means 1 (the paper's unfiltered behaviour).
	MinCNFs int
	// Build configures CNF construction: granularities, anomaly kinds and
	// the per-window solve parallelism (Build.Workers).
	Build tomo.BuildConfig
}

func (c *Config) fillDefaults() {
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.MinCNFs <= 0 {
		c.MinCNFs = 1
	}
	if c.Window < 0 {
		c.Window = 0
	}
}

// Window is one emitted localization: the tomography result over the days
// [StartDay, EndDay], identical to what the batch pipeline would produce
// over the same records.
type Window struct {
	// Index is the window ordinal, 0-based in emission order.
	Index int
	// StartDay and EndDay are inclusive day ordinals (0 = first pushed day).
	StartDay, EndDay int

	Instances []*tomo.Instance
	Outcomes  []tomo.Outcome
	// Identified is the window's censor set at the configured MinCNFs.
	Identified map[topology.ASN]*tomo.IdentifiedCensor

	// Solved and Reused report the incremental engine's work split: CNFs
	// re-solved because a day boundary touched them versus CNFs served from
	// the previous window's cache.
	Solved, Reused int
}

// Engine ingests day batches of measurement records and emits sliding- or
// growing-window localizations. Feed it days in order with PushCtx;
// whenever a pushed day completes the next window, PushCtx returns that
// window's result.
//
// The engine is the streaming face of tomo.Incremental: days entering the
// window are folded into the live (URL, slice) cells, days aging out drop
// their parts of those cells, and only the CNFs a boundary touched are
// re-solved. Determinism matches the batch engine: a replay at any
// Build.Workers setting produces identical windows.
type Engine struct {
	cfg        Config
	inc        *tomo.Incremental
	nextDay    int
	nextWindow int
	residentLo int // lowest day ordinal still held by the builder
}

// NewEngine returns an engine with no days ingested.
func NewEngine(cfg Config) *Engine {
	cfg.fillDefaults()
	return &Engine{cfg: cfg, inc: tomo.NewIncremental(cfg.Build)}
}

// windowBounds returns the inclusive day range of window w.
func (e *Engine) windowBounds(w int) (start, end int) {
	if e.cfg.Window == 0 {
		return 0, (w+1)*e.cfg.Stride - 1
	}
	return w * e.cfg.Stride, w*e.cfg.Stride + e.cfg.Window - 1
}

// PushCtx ingests the next day's records (day ordinals are implicit: the
// first call is day 0). The engine only reads the records: the caller's
// batch is left as it was, and may be shared with other readers. When the
// pushed day completes the next window, PushCtx ages out any days that fell
// behind the window start, solves, and returns the window; otherwise it
// returns nil.
//
// The day's records are always ingested; only the window solve a
// completing day triggers is cancelable. On a non-nil error the day still
// counts as pushed but its window was not emitted — the engine's
// incremental state stays coherent (unsolved keys remain dirty), so a
// caller that keeps the engine can FlushCtx later to recover the
// localization; callers abandoning the run just drop the engine.
func (e *Engine) PushCtx(ctx context.Context, records []iclab.Record) (*Window, error) {
	day := e.nextDay
	e.nextDay++
	e.inc.AddDay(day, records)

	start, end := e.windowBounds(e.nextWindow)
	if day != end {
		return nil, ctx.Err()
	}
	return e.emit(ctx, start, end)
}

// emit ages out days behind start, solves, and packages the window
// [start, end] under the next ordinal — the single emission path shared by
// PushCtx and FlushCtx. On cancellation the window ordinal is not consumed.
func (e *Engine) emit(ctx context.Context, start, end int) (*Window, error) {
	for ; e.residentLo < start; e.residentLo++ {
		e.inc.RemoveDay(e.residentLo)
	}
	insts, outs, stats, err := e.inc.BuildAndSolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	w := &Window{
		Index:    e.nextWindow,
		StartDay: start, EndDay: end,
		Instances:  insts,
		Outcomes:   outs,
		Identified: tomo.IdentifyCensors(outs, e.cfg.MinCNFs),
		Solved:     stats.Solved,
		Reused:     stats.Reused,
	}
	e.nextWindow++
	return w, nil
}

// FlushCtx localizes any pushed days that no emitted window has covered
// yet — the tail left when the day count does not land on a window end.
// The returned window ends at the last pushed day and spans at most the
// configured width (cumulative flushes cover everything, so a cumulative
// replay's flushed final window always equals the batch result). Returns
// nil when the last emitted window already covers the last pushed day, or
// when nothing was pushed. FlushCtx is an end-of-stream operation: it
// consumes the next window ordinal, so resuming PushCtx afterwards
// continues emitting but the flushed window's day range will not realign
// with the stride grid. See PushCtx for the engine-state guarantees on a
// non-nil error.
func (e *Engine) FlushCtx(ctx context.Context) (*Window, error) {
	last := e.nextDay - 1
	if last < 0 {
		return nil, ctx.Err()
	}
	if e.nextWindow > 0 {
		if _, prevEnd := e.windowBounds(e.nextWindow - 1); prevEnd >= last {
			return nil, ctx.Err()
		}
	}
	start := 0
	if e.cfg.Window > 0 {
		if start = last - e.cfg.Window + 1; start < 0 {
			start = 0
		}
	}
	return e.emit(ctx, start, last)
}

// Days reports how many days have been pushed.
func (e *Engine) Days() int { return e.nextDay }

// String summarizes a window for progress output.
func (w *Window) String() string {
	return fmt.Sprintf("window %d [day %d..%d]: %d CNFs (%d solved, %d reused), %d censors",
		w.Index, w.StartDay, w.EndDay, len(w.Outcomes), w.Solved, w.Reused, len(w.Identified))
}

// Convergence describes how one censor's identification evolved across a
// window timeline — the streaming analogue of the paper's observation that
// localization sharpens as churn accumulates.
type Convergence struct {
	ASN topology.ASN
	// FirstWindow and LastWindow are the first and last window indices that
	// identified the AS.
	FirstWindow, LastWindow int
	// Windows counts how many windows identified the AS.
	Windows int
	// StableFrom is the earliest window index from which the AS is
	// identified in every subsequent window through the end of the
	// timeline, or -1 when the final window no longer identifies it. The
	// churn-convergence question "how many windows until this censor
	// stabilizes?" is answered by StableFrom+1.
	StableFrom int
}

// Converge folds a window timeline into per-censor convergence stats,
// sorted by ASN ascending.
func Converge(windows []*Window) []Convergence {
	stats := map[topology.ASN]*Convergence{}
	for wi, w := range windows {
		for asn := range w.Identified {
			c := stats[asn]
			if c == nil {
				c = &Convergence{ASN: asn, FirstWindow: wi, StableFrom: -1}
				stats[asn] = c
			}
			c.LastWindow = wi
			c.Windows++
		}
	}
	// An AS identified in the final window is stable from the start of its
	// trailing run of consecutive identifications.
	for _, c := range stats {
		if c.LastWindow != len(windows)-1 {
			continue
		}
		from := c.LastWindow
		for from > 0 {
			if _, ok := windows[from-1].Identified[c.ASN]; !ok {
				break
			}
			from--
		}
		c.StableFrom = from
	}
	out := make([]Convergence, 0, len(stats))
	for _, c := range stats {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}
