package churntomo

// Experiment is the one entry point: a context-aware, option-driven
// abstraction that executes batch, streaming and matrix runs through a
// single cell runner.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/parallel"
	"churntomo/internal/sat"
	"churntomo/internal/stream"
	"churntomo/internal/tomo"
)

// Mode is how an Experiment executes.
type Mode int

const (
	// ModeBatch measures everything, then builds and solves once.
	ModeBatch Mode = iota
	// ModeStreaming replays the scenario day by day through the
	// incremental windowed localizer.
	ModeStreaming
	// ModeMatrix runs many whole pipelines concurrently and aggregates.
	ModeMatrix
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeBatch:
		return "batch"
	case ModeStreaming:
		return "streaming"
	case ModeMatrix:
		return "matrix"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Experiment is one configured experiment: construct with New, execute
// with Run. An Experiment is immutable after New and safe to Run multiple
// times (every run is deterministic for the same options) or concurrently.
type Experiment struct {
	base Config

	streaming      bool
	window, stride int
	minCNFs        int
	seedSweep      int
	ablation       bool

	// source feeds every cell: the WithSource/WithInput selection, or a
	// ScenarioSource when neither is given.
	source Source
	// scenarioName is the WithScenario selection; it survives a later
	// WithConfig (New re-applies it to the base config).
	scenarioName string

	observers []Observer
	obsMu     sync.Mutex
}

// New constructs an Experiment from functional options, validating every
// option and the combination: streaming (WithWindow, WithStride) and a
// seed sweep are mutually exclusive, and a source that replays recorded
// data takes neither a sweep nor a scenario selection. With no options the
// experiment is a batch DefaultConfig run.
func New(opts ...Option) (*Experiment, error) {
	e := &Experiment{}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("churntomo: New: nil Option")
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.seedSweep > 1 && e.streaming {
		return nil, fmt.Errorf("churntomo: New: streaming and matrix modes are mutually exclusive")
	}
	if e.source == nil {
		e.source = &ScenarioSource{}
	}
	if _, ok := e.source.(*ScenarioSource); !ok {
		// A sweep varies the world per cell; a replay source fixes the
		// data, so every cell would be identical — the library-level twin
		// of churnlab's -input/-matrix conflict.
		if e.seedSweep > 1 {
			return nil, fmt.Errorf("churntomo: New: a matrix sweep resamples the world per cell, but source %q replays the same recorded data into every cell", e.source.Label())
		}
		// A scenario selection steers world synthesis; combined with a
		// source that replays recorded data it would be silently ignored.
		if e.scenarioName != "" {
			return nil, fmt.Errorf("churntomo: New: source %q replays recorded data, which a scenario selection cannot steer; drop one", e.source.Label())
		}
	}
	// A WithScenario anywhere in the option list wins over whatever
	// Config.Scenario a WithConfig carried, and the world actually built is
	// always the one the result records. Scenario names fail here, at
	// construction, not mid-run.
	if e.scenarioName != "" {
		e.base.Scenario = e.scenarioName
	}
	if _, err := resolveScenario(e.base.Scenario); err != nil {
		return nil, err
	}
	return e, nil
}

// Mode reports how the experiment will execute.
func (e *Experiment) Mode() Mode {
	switch {
	case e.seedSweep > 1:
		return ModeMatrix
	case e.streaming:
		return ModeStreaming
	default:
		return ModeBatch
	}
}

// emit delivers an event to every registered observer, serialized so
// concurrent matrix cells never interleave observer calls.
func (e *Experiment) emit(ev Event) {
	if len(e.observers) == 0 {
		return
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	for _, obs := range e.observers {
		obs(ev)
	}
}

// Run executes the experiment: substrate generation, measurement,
// localization — batch, streaming or matrix, per the options — honoring
// ctx cancellation and deadline at every stage boundary and inside the
// sharded day/solve loops. Once ctx is done, no further stage, day shard,
// CNF solve or matrix cell starts and Run returns ctx.Err(); work already
// in flight finishes first (bounded by one day's measurement or one CNF
// solve), and no goroutines are leaked. A nil ctx means context.Background.
//
// In matrix mode a failed cell does not abort the run — its error lands in
// Result.Cells and MatrixSummary.Failed — but a done ctx does.
func (e *Experiment) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.Mode() == ModeMatrix {
		return e.runMatrixMode(ctx)
	}
	c, err := e.runCell(ctx, e.base, -1)
	if err != nil {
		return nil, err
	}
	return e.singleResult(c), nil
}

// resolvedMinCNFs is the corroboration threshold after defaulting.
func (e *Experiment) resolvedMinCNFs() int {
	if e.minCNFs > 0 {
		return e.minCNFs
	}
	return identifyMinCNFs
}

// openCell obtains a cell's world and day-ordered record shards from the
// experiment's source. Built-in sources implement the internal cellSource
// fast path (the ScenarioSource one is byte-identical to the pre-Source
// fused pipeline); external Source implementations go through the public
// Open contract and the dataset adapter.
func (e *Experiment) openCell(ctx context.Context, cfg Config, emit func(Event)) (*cell, [][]iclab.Record, error) {
	src := e.source
	if cs, ok := src.(cellSource); ok {
		return cs.openCell(ctx, cfg, emit)
	}
	ev := newEvent(StageLoad)
	ev.Stats.Seed = cfg.Seed
	ev.Source = src.Label()
	emit(ev)
	d, err := src.Open(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("churntomo: source %q: %w", src.Label(), err)
	}
	f, err := publicToFile(d)
	if err != nil {
		return nil, nil, fmt.Errorf("churntomo: source %q: %w", src.Label(), err)
	}
	// The caller keeps its Dataset and may edit it after the run, so the
	// run analyzes a copy of the records.
	f.Days = cloneDays(f.Days)
	return adoptFile(cfg, f)
}

// runCell executes one pipeline — THE code path shared by every mode.
// index is the matrix cell index, -1 outside matrix mode; it tags every
// emitted event. The experiment's Source supplies the world and the day
// shards (synthesized or replayed); batch cells then localize with one
// BuildAndSolve while streaming cells replay the day shards through a
// stream.Engine. Cancellation is checked at each stage boundary, between
// streamed days, and inside the sharded loops via the ctx-aware engines.
//
// The churn summary and the localization only read the record table, so
// a single-cell run computes the summary on one goroutine of its own
// beside the localization's Workers-sized pool, mostly on the core CNF
// construction's serial fold leaves idle (serially at Workers: 1).
// Matrix cells never report churn and skip it.
func (e *Experiment) runCell(ctx context.Context, cfg Config, index int) (*cell, error) {
	emit := func(ev Event) {
		ev.Cell = index
		e.emit(ev)
	}

	c, shards, err := e.openCell(ctx, cfg, emit)
	if err != nil {
		return nil, err
	}
	c.dataset = iclab.NewDataset(c.world, iclab.MergeShards(shards))
	tasks := 1
	if index < 0 {
		tasks = 2
	}
	var localizeErr error
	if err := parallel.ForEachCtx(ctx, c.cfg.Workers, tasks, func(task int) {
		if task == 1 {
			c.churn, c.churnByClass = churnOf(c)
			return
		}
		localizeErr = e.localize(ctx, c, shards, emit)
	}); err != nil {
		return nil, err
	}
	if localizeErr != nil {
		return nil, localizeErr
	}
	return c, nil
}

// localize runs the cell's localization: a streaming replay of the day
// shards, or one batch build and solve over the merged table. The
// streaming engine only reads the shards, so the merged dataset is
// bit-identical to a batch run's; a streaming cell's batch localization
// stays nil, as the window timeline replaces it.
func (e *Experiment) localize(ctx context.Context, c *cell, shards [][]iclab.Record, emit func(Event)) error {
	if e.streaming {
		return e.replay(ctx, c, shards, emit)
	}
	ev := newEvent(StageSolve)
	ev.Stats.Seed = c.cfg.Seed
	emit(ev)
	var err error
	_, c.outcomes, err = tomo.BuildAndSolveCtx(ctx, c.dataset.Records, tomo.BuildConfig{Workers: c.cfg.Workers})
	if err != nil {
		return err
	}
	c.identified = tomo.IdentifyCensors(c.outcomes, e.resolvedMinCNFs())
	c.leakage = leakage.Analyze(c.outcomes, c.world.Graph)
	return nil
}

// replay pushes the measured day shards through the streaming localizer,
// emitting StageDay and StageWindow events as the timeline unfolds. Each
// window is converted to its WindowResult as it arrives. After the replay
// only the final window's outcomes are read (by the summary and the
// leakage analysis), so a window that is superseded keeps its Identified
// set, which stream.Converge reads, and drops its instances and outcomes.
func (e *Experiment) replay(ctx context.Context, c *cell, shards [][]iclab.Record, emit func(Event)) error {
	eng := stream.NewEngine(stream.Config{
		Window:  e.window,
		Stride:  e.stride,
		MinCNFs: e.resolvedMinCNFs(),
		Build:   tomo.BuildConfig{Workers: c.cfg.Workers},
	})
	record := func(w *stream.Window) {
		if w == nil {
			return
		}
		if prev := c.final(); prev != nil {
			prev.Instances, prev.Outcomes = nil, nil
		}
		c.windows = append(c.windows, w)
		c.windowResults = append(c.windowResults, windowResultOf(w))
		ev := newEvent(StageWindow)
		ev.Window = w.Index
		ev.Stats = EventStats{
			Seed: c.cfg.Seed, StartDay: w.StartDay, EndDay: w.EndDay,
			CNFs: len(w.Outcomes), Solved: w.Solved, Reused: w.Reused,
			Censors: len(w.Identified),
		}
		emit(ev)
	}
	for day, records := range shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		w, err := eng.PushCtx(ctx, records)
		if err != nil {
			return err
		}
		ev := newEvent(StageDay)
		ev.Day = day
		ev.Stats.Seed = c.cfg.Seed
		emit(ev)
		record(w)
	}
	// Localize any tail days the stride grid left uncovered, so every
	// measured day appears in the timeline and a cumulative replay's
	// final window always equals the batch result.
	w, err := eng.FlushCtx(ctx)
	if err != nil {
		return err
	}
	record(w)
	c.conv = stream.Converge(c.windows)
	return nil
}

// singleResult converts a batch or streaming cell into the public Result.
func (e *Experiment) singleResult(c *cell) *Result {
	g := c.world.Graph
	res := &Result{Config: c.cfg, Mode: e.Mode(), cell: c}
	var outcomes []tomo.Outcome
	if e.streaming {
		res.Windows = c.windowResults
		res.Convergence = convergencesOf(c.conv)
		if final := c.final(); final != nil {
			outcomes = final.Outcomes
			res.Identified = final.Identified
		} else {
			res.Identified = map[ASN]*IdentifiedCensor{}
		}
		if outcomes != nil {
			res.Leakage = leakageSummaryOf(leakage.Analyze(outcomes, g), g)
		}
	} else {
		outcomes = c.outcomes
		res.Identified = c.identified
		res.Leakage = leakageSummaryOf(c.leakage, g)
	}
	res.Censors = censorsOf(res.Identified, c.world)
	res.Categories = categoriesOf(res.Identified, c.world.Targets)
	res.Summary = summaryOf(c, outcomes)
	res.Churn, res.ChurnByClass = c.churn, c.churnByClass
	if e.ablation {
		res.NoChurn = ablationOf(c)
	}
	for _, o := range outcomes {
		if o.Class == sat.Multiple {
			res.Reductions = append(res.Reductions, o.ReductionFrac())
		}
	}
	// Ground-truth self-grading: every synthesized (or fully exported)
	// dataset knows who really censors, so score the verdict against it.
	// Metadata-only replays have no registry and stay ungraded.
	res.Evaluation = Evaluate(res, res.Truth())
	// Result keeps the cell for its world and dataset; the final window's
	// outcomes would only pin memory for as long as the caller holds it.
	c.windows, c.windowResults, c.conv = nil, nil, nil
	return res
}

// matrixConfigs expands the seed sweep into per-cell configs: the base
// config at consecutive seeds.
func (e *Experiment) matrixConfigs() []Config {
	base := e.base
	base.fillDefaults()
	out := make([]Config, e.seedSweep)
	for i := range out {
		out[i] = base
		out[i].Seed = base.Seed + uint64(i)
	}
	return out
}

// runMatrixCells executes every cell on a GOMAXPROCS pool, returning
// per-cell statuses and artifacts in input order (a failed cell's
// artifacts are nil). A failed cell carries its error instead of aborting
// the sweep; a done ctx stops dispatching further cells.
func (e *Experiment) runMatrixCells(ctx context.Context, cfgs []Config) ([]CellStatus, []*cell) {
	statuses := make([]CellStatus, len(cfgs))
	cells := make([]*cell, len(cfgs))
	//churnvet:ok errflow -- a done ctx surfaces per cell: runCell returns ctx.Err into each CellStatus, so the sweep-level error would only duplicate what every cell already carries
	_ = parallel.ForEachCtx(ctx, 0, len(cfgs), func(i int) {
		cfg := cfgs[i]
		c, err := e.runCell(ctx, cfg, i)
		cs := CellStatus{Index: i, Config: cfg, Err: err}
		if err == nil {
			cells[i] = c
			cs.Censors = len(c.identified)
			cs.CNFs = len(c.outcomes)
		}
		statuses[i] = cs
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return // a canceled cell is not an outcome worth reporting
		}
		ev := newEvent(StageCell)
		ev.Cell = i
		ev.Err = err
		ev.Stats.Seed = cfg.Seed
		ev.Stats.Censors, ev.Stats.CNFs = cs.Censors, cs.CNFs
		// runCell tags events with its own index; StageCell is emitted
		// here so its Cell index survives the TextObserver filter.
		e.emit(ev)
	})
	return statuses, cells
}

// runMatrixMode executes the matrix and folds it into a Result.
func (e *Experiment) runMatrixMode(ctx context.Context) (*Result, error) {
	statuses, cells := e.runMatrixCells(ctx, e.matrixConfigs())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := e.base
	base.fillDefaults()
	return &Result{
		Config: base,
		Mode:   ModeMatrix,
		Matrix: matrixSummaryOf(cells),
		Cells:  statuses,
	}, nil
}
