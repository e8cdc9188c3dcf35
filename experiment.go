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
	"churntomo/internal/scenario"
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
	scaleFactors   []float64
	cells          []Config
	matrixWorkers  int
	ablation       bool

	// source is the experiment-wide measurement source (nil = the default
	// ScenarioSource); cellSources is the WithSources matrix — one cell
	// per source, overriding source per cell.
	source      Source
	cellSources []Source

	// specOverride is the explicit composed spec from WithScenarioSpec;
	// nil means cells resolve their Config.Scenario name against the
	// preset registry. scenarioName is the WithScenario selection; both
	// survive a later WithConfig (New re-applies them to the base config).
	specOverride *scenario.Spec
	scenarioName string

	observers []Observer
	obsMu     sync.Mutex
}

// New constructs an Experiment from functional options, validating every
// option and the combination: streaming options (WithWindow, WithStride,
// WithStreaming) and matrix options (WithSeedSweep, WithScaleSweep,
// WithConfigs) are mutually exclusive, and at most one matrix shape may be
// given. With no options the experiment is a batch DefaultConfig run.
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
	shapes := 0
	for _, set := range []bool{e.seedSweep > 1, len(e.scaleFactors) > 0, len(e.cells) > 0, len(e.cellSources) > 0} {
		if set {
			shapes++
		}
	}
	if shapes > 1 {
		return nil, fmt.Errorf("churntomo: New: choose at most one of WithSeedSweep, WithScaleSweep, WithConfigs and WithSources")
	}
	if shapes > 0 && e.streaming {
		return nil, fmt.Errorf("churntomo: New: streaming and matrix modes are mutually exclusive")
	}
	if e.source != nil && len(e.cellSources) > 0 {
		return nil, fmt.Errorf("churntomo: New: WithSource and WithSources are mutually exclusive")
	}
	// A sweep varies the world per cell; a replay source fixes the data,
	// so every cell would be identical — the library-level twin of
	// churnlab's -input/-matrix conflict.
	if e.source != nil && shapes > 0 {
		if _, ok := e.source.(*ScenarioSource); !ok {
			return nil, fmt.Errorf("churntomo: New: a matrix sweep resamples the world per cell, but source %q replays the same recorded data into every cell; use WithSources for per-cell datasets", e.source.Label())
		}
	}
	// A scenario selection steers world synthesis; combined with a source
	// that replays recorded data it would be silently ignored.
	if e.scenarioName != "" || e.specOverride != nil {
		for _, src := range append([]Source{e.source}, e.cellSources...) {
			if src == nil {
				continue
			}
			if _, ok := src.(*ScenarioSource); !ok {
				return nil, fmt.Errorf("churntomo: New: source %q replays recorded data, which a scenario selection cannot steer; drop one", src.Label())
			}
		}
	}
	// Scenario selection is order-insensitive with respect to WithConfig:
	// a WithScenario/WithScenarioSpec anywhere in the option list wins
	// over whatever Config.Scenario a WithConfig carried, and the world
	// actually built is always the one the result records. Scenario names
	// fail here, at construction, not mid-run.
	switch {
	case e.specOverride != nil:
		e.base.Scenario = e.specOverride.Name
		// The override decides every cell's world; a cell config naming a
		// different scenario would be silently ignored, so reject it.
		for i := range e.cells {
			if s := e.cells[i].Scenario; s != "" && s != e.specOverride.Name {
				return nil, fmt.Errorf("churntomo: New: cell %d names scenario %q, which WithScenarioSpec(%q) would override; drop one",
					i, s, e.specOverride.Name)
			}
			e.cells[i].Scenario = e.specOverride.Name
		}
	case e.scenarioName != "":
		e.base.Scenario = e.scenarioName
		// Cells that don't name their own scenario inherit the
		// experiment-level selection; explicit cell names stay honored
		// (a WithConfigs grid may mix scenarios per cell).
		for i := range e.cells {
			if e.cells[i].Scenario == "" {
				e.cells[i].Scenario = e.scenarioName
			}
		}
		fallthrough
	default:
		if _, err := resolveScenario(e.base.Scenario); err != nil {
			return nil, err
		}
		for i := range e.cells {
			if _, err := resolveScenario(e.cells[i].Scenario); err != nil {
				return nil, fmt.Errorf("churntomo: New: cell %d: %w", i, err)
			}
		}
	}
	return e, nil
}

// Mode reports how the experiment will execute.
func (e *Experiment) Mode() Mode {
	switch {
	case e.seedSweep > 1 || len(e.scaleFactors) > 0 || len(e.cells) > 0 || len(e.cellSources) > 0:
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

// cellSpec resolves the scenario one cell builds under: the explicit
// WithScenarioSpec composition when given, the cell config's named preset
// otherwise (so a WithConfigs grid may mix scenarios per cell).
func (e *Experiment) cellSpec(cfg Config) (scenario.Spec, error) {
	if e.specOverride != nil {
		return *e.specOverride, nil
	}
	return resolveScenario(cfg.Scenario)
}

// resolvedMinCNFs is the corroboration threshold after defaulting.
func (e *Experiment) resolvedMinCNFs() int {
	if e.minCNFs > 0 {
		return e.minCNFs
	}
	return identifyMinCNFs
}

// sourceFor resolves which Source feeds a cell: the per-cell WithSources
// entry, the experiment-wide WithSource/WithInput selection, or the
// default ScenarioSource.
func (e *Experiment) sourceFor(cell int) Source {
	if cell >= 0 && cell < len(e.cellSources) {
		return e.cellSources[cell]
	}
	if e.source != nil {
		return e.source
	}
	return defaultSource
}

// openCell obtains a cell's world and day-ordered record shards from its
// source. Built-in sources implement the internal cellSource fast path
// (the ScenarioSource one is byte-identical to the pre-Source fused
// pipeline); external Source implementations go through the public Open
// contract and the dataset adapter.
func (e *Experiment) openCell(ctx context.Context, src Source, cfg Config, emit func(Event)) (*cell, [][]iclab.Record, error) {
	if cs, ok := src.(cellSource); ok {
		return cs.openCell(ctx, e, cfg, emit)
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
	return adoptFile(cfg, f)
}

// runCell executes one pipeline — THE code path shared by every mode.
// index is the matrix cell index, -1 outside matrix mode; it tags every
// emitted event. The cell's Source supplies the world and the day shards
// (synthesized or replayed); batch cells then localize with one
// BuildAndSolve while streaming cells replay the day shards through a
// stream.Engine. Cancellation is checked at each stage boundary, between
// streamed days, and inside the sharded loops via the ctx-aware engines.
func (e *Experiment) runCell(ctx context.Context, cfg Config, index int) (*cell, error) {
	emit := func(ev Event) {
		ev.Cell = index
		e.emit(ev)
	}

	c, shards, err := e.openCell(ctx, e.sourceFor(index), cfg, emit)
	if err != nil {
		return nil, err
	}
	cfg = c.cfg

	if e.streaming && index < 0 {
		if err := e.replay(ctx, c, shards, emit); err != nil {
			return nil, err
		}
		// The pushed shards carry the IDs the batch merge would assign, so
		// the merged dataset is bit-identical to a batch run's. The batch
		// localization stays nil — the window timeline replaces it.
		c.dataset = iclab.NewDataset(c.world, iclab.MergeShards(shards))
		return c, nil
	}

	c.dataset = iclab.NewDataset(c.world, iclab.MergeShards(shards))
	ev := newEvent(StageSolve)
	ev.Stats.Seed = cfg.Seed
	emit(ev)
	_, c.outcomes, err = tomo.BuildAndSolveCtx(ctx, c.dataset.Records, tomo.BuildConfig{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	c.identified = tomo.IdentifyCensors(c.outcomes, e.resolvedMinCNFs())
	c.leakage = leakage.Analyze(c.outcomes, c.world.Graph)
	return c, nil
}

// replay pushes the measured day shards through the streaming localizer,
// emitting StageDay and StageWindow events as the timeline unfolds.
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
		c.windows = append(c.windows, w)
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
		res.Windows = windowResultsOf(c.windows)
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
	res.Churn, res.ChurnByClass = churnOf(c)
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
	// Result keeps the cell for its world and dataset; every window's
	// outcomes would only pin memory for as long as the caller holds it.
	c.windows, c.conv = nil, nil
	return res
}

// matrixConfigs expands the configured sweep into per-cell configs.
func (e *Experiment) matrixConfigs() []Config {
	base := e.base
	base.fillDefaults()
	var out []Config
	switch {
	case len(e.cells) > 0:
		out = append([]Config(nil), e.cells...)
	case len(e.cellSources) > 0:
		// One cell per source, all under the base configuration — the
		// source decides the data, the config the analysis knobs.
		out = make([]Config, len(e.cellSources))
		for i := range out {
			out[i] = base
		}
	case len(e.scaleFactors) > 0:
		out = make([]Config, len(e.scaleFactors))
		for i, f := range e.scaleFactors {
			out[i] = base
			out[i].Vantages = max(int(float64(base.Vantages)*f), 2)
			out[i].URLs = max(int(float64(base.URLs)*f), 2)
			out[i].Days = max(int(float64(base.Days)*f), 1)
		}
	default:
		out = make([]Config, e.seedSweep)
		for i := range out {
			out[i] = base
			out[i].Seed = base.Seed + uint64(i)
		}
	}
	return out
}

// runMatrixCells executes every cell on the matrix worker pool, returning
// per-cell statuses and artifacts in input order (a failed cell's
// artifacts are nil). A failed cell carries its error instead of aborting
// the sweep; a done ctx stops dispatching further cells.
func (e *Experiment) runMatrixCells(ctx context.Context, cfgs []Config) ([]CellStatus, []*cell) {
	statuses := make([]CellStatus, len(cfgs))
	cells := make([]*cell, len(cfgs))
	//churnvet:ok errflow -- a done ctx surfaces per cell: runCell returns ctx.Err into each CellStatus, so the sweep-level error would only duplicate what every cell already carries
	_ = parallel.ForEachCtx(ctx, e.matrixWorkers, len(cfgs), func(i int) {
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
