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
	cell, err := e.runCell(ctx, e.base, -1)
	if err != nil {
		return nil, err
	}
	return e.singleResult(cell), nil
}

// cellRun is one cell's raw outcome before Result conversion.
type cellRun struct {
	cfg     Config // defaults filled
	pipe    *Pipeline
	windows []*stream.Window
	conv    []stream.Convergence
}

// final returns the last emitted window, or nil.
func (cr *cellRun) final() *stream.Window {
	if len(cr.windows) == 0 {
		return nil
	}
	return cr.windows[len(cr.windows)-1]
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

// openCell obtains a cell's pipeline skeleton and day-ordered record
// shards from its source. Built-in sources implement the internal
// cellSource fast path (the ScenarioSource one is byte-identical to the
// pre-Source fused pipeline); external Source implementations go through
// the public Open contract and the dataset adapter.
func (e *Experiment) openCell(ctx context.Context, src Source, cfg Config, emit func(Event)) (*Pipeline, [][]iclab.Record, error) {
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
// cell is the matrix cell index, -1 outside matrix mode; it tags every
// emitted event. The cell's Source supplies the pipeline skeleton and the
// day shards (synthesized or replayed); batch cells then localize with
// one BuildAndSolve while streaming cells replay the day shards through a
// stream.Engine. Cancellation is checked at each stage boundary, between
// streamed days, and inside the sharded loops via the ctx-aware engines.
func (e *Experiment) runCell(ctx context.Context, cfg Config, cell int) (*cellRun, error) {
	emit := func(ev Event) {
		ev.Cell = cell
		e.emit(ev)
	}

	p, shards, err := e.openCell(ctx, e.sourceFor(cell), cfg, emit)
	if err != nil {
		return nil, err
	}
	cfg = p.Config // defaults filled, source metadata adopted
	cr := &cellRun{cfg: cfg, pipe: p}

	if e.streaming && cell < 0 {
		if err := e.replay(ctx, cr, shards, emit); err != nil {
			return nil, err
		}
		// The pushed shards carry the IDs the batch merge would assign, so
		// the merged dataset is bit-identical to a batch run's. The batch
		// Localize artifacts stay nil — the window timeline replaces them.
		p.Dataset = iclab.NewDataset(p.Scenario, iclab.MergeShards(shards))
		return cr, nil
	}

	p.Dataset = iclab.NewDataset(p.Scenario, iclab.MergeShards(shards))
	ev := newEvent(StageSolve)
	ev.Stats.Seed = cfg.Seed
	emit(ev)
	p.Instances, p.Outcomes, err = tomo.BuildAndSolveCtx(ctx, p.Dataset.Records, tomo.BuildConfig{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	p.Identified = tomo.IdentifyCensors(p.Outcomes, e.resolvedMinCNFs())
	p.Leakage = leakage.Analyze(p.Outcomes, p.Graph)
	return cr, nil
}

// replay pushes the measured day shards through the streaming localizer,
// emitting StageDay and StageWindow events as the timeline unfolds.
func (e *Experiment) replay(ctx context.Context, cr *cellRun, shards [][]iclab.Record, emit func(Event)) error {
	eng := stream.NewEngine(stream.Config{
		Window:  e.window,
		Stride:  e.stride,
		MinCNFs: e.resolvedMinCNFs(),
		Build:   tomo.BuildConfig{Workers: cr.cfg.Workers},
	})
	record := func(w *stream.Window) {
		if w == nil {
			return
		}
		cr.windows = append(cr.windows, w)
		ev := newEvent(StageWindow)
		ev.Window = w.Index
		ev.Stats = EventStats{
			Seed: cr.cfg.Seed, StartDay: w.StartDay, EndDay: w.EndDay,
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
		ev.Stats.Seed = cr.cfg.Seed
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
	cr.conv = stream.Converge(cr.windows)
	return nil
}

// singleResult converts a batch or streaming cell into the public Result.
func (e *Experiment) singleResult(cr *cellRun) *Result {
	p := cr.pipe
	res := &Result{
		Config:    cr.cfg,
		Mode:      e.Mode(),
		Pipelines: []*Pipeline{p},
	}
	var outcomes []tomo.Outcome
	if e.streaming {
		res.Windows = windowResultsOf(cr.windows)
		res.Convergence = convergencesOf(cr.conv)
		if final := cr.final(); final != nil {
			outcomes = final.Outcomes
			res.Identified = final.Identified
		} else {
			res.Identified = map[ASN]*IdentifiedCensor{}
		}
		if outcomes != nil {
			res.Leakage = leakageSummaryOf(leakage.Analyze(outcomes, p.Graph), p.Graph)
		}
	} else {
		outcomes = p.Outcomes
		res.Identified = p.Identified
		res.Leakage = leakageSummaryOf(p.Leakage, p.Graph)
	}
	res.Censors = censorsOf(res.Identified, p)
	res.Summary = summaryOf(p, outcomes)
	res.Churn = churnOf(p)
	res.ChurnByClass = churnByClassOf(p)
	if e.ablation {
		res.NoChurn = ablationOf(p, cr.cfg.Workers)
	}
	for _, o := range outcomes {
		if o.Class == sat.Multiple {
			res.reductionFracs = append(res.reductionFracs, o.ReductionFrac())
		}
	}
	// Ground-truth self-grading: every synthesized (or fully exported)
	// dataset knows who really censors, so score the verdict against it.
	// Metadata-only replays have no registry and stay ungraded.
	res.Evaluation = Evaluate(res, res.Truth())
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
// per-cell statuses and pipelines in input order (a failed cell's
// pipeline is nil). A failed cell carries its error instead of aborting
// the sweep; a done ctx stops dispatching further cells.
func (e *Experiment) runMatrixCells(ctx context.Context, cfgs []Config) ([]CellStatus, []*Pipeline) {
	cells := make([]CellStatus, len(cfgs))
	pipes := make([]*Pipeline, len(cfgs))
	//churnvet:ok errflow -- a done ctx surfaces per cell: runCell returns ctx.Err into each CellStatus, so the sweep-level error would only duplicate what every cell already carries
	_ = parallel.ForEachCtx(ctx, e.matrixWorkers, len(cfgs), func(i int) {
		cfg := cfgs[i]
		cr, err := e.runCell(ctx, cfg, i)
		cs := CellStatus{Index: i, Config: cfg, Err: err}
		if err == nil {
			pipes[i] = cr.pipe
			cs.Censors = len(cr.pipe.Identified)
			cs.CNFs = len(cr.pipe.Outcomes)
		}
		cells[i] = cs
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
	return cells, pipes
}

// runMatrixMode executes the matrix and folds it into a Result.
func (e *Experiment) runMatrixMode(ctx context.Context) (*Result, error) {
	cells, pipes := e.runMatrixCells(ctx, e.matrixConfigs())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	base := e.base
	base.fillDefaults()
	return &Result{
		Config:    base,
		Mode:      ModeMatrix,
		Matrix:    matrixSummaryOf(pipes),
		Cells:     cells,
		Pipelines: pipes,
	}, nil
}
