package churntomo

// Functional options for New. Every option validates its argument and
// returns a descriptive error from New instead of silently misbehaving at
// run time.

import (
	"fmt"
	"time"
)

// Option configures an Experiment under construction; see New.
type Option func(*Experiment) error

// Scale names one of the preset experiment sizes.
type Scale int

const (
	// ScaleDefault is DefaultConfig: a mid-scale year-long run.
	ScaleDefault Scale = iota
	// ScaleSmall is SmallConfig: a seconds-scale run for tests/examples.
	ScaleSmall
	// ScalePaper is PaperScaleConfig: the paper's dataset dimensions.
	ScalePaper
)

// String returns the scale's churnlab flag spelling.
func (s Scale) String() string {
	switch s {
	case ScaleDefault:
		return "default"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale converts a churnlab-style scale name ("small", "default",
// "paper") to a Scale.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleDefault, ScaleSmall, ScalePaper} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("churntomo: unknown scale %q (want small, default or paper)", name)
}

// WithConfig replaces the experiment's base configuration wholesale.
// Later dimension options (WithSeed, WithScale, WithDays, ...) still
// apply on top.
func WithConfig(cfg Config) Option {
	return func(e *Experiment) error {
		e.base = cfg
		return nil
	}
}

// WithScale sets the experiment's dimensions (topology and platform scale)
// from a preset, leaving seed, workers and start time untouched.
func WithScale(s Scale) Option {
	return func(e *Experiment) error {
		var c Config
		switch s {
		case ScaleSmall:
			c = SmallConfig()
		case ScaleDefault:
			c = DefaultConfig()
		case ScalePaper:
			c = PaperScaleConfig()
		default:
			return fmt.Errorf("churntomo: WithScale: unknown scale %d", int(s))
		}
		e.base.ASes, e.base.Countries = c.ASes, c.Countries
		e.base.Vantages, e.base.URLs = c.Vantages, c.URLs
		e.base.Days, e.base.URLsPerDay, e.base.RepeatsPerDay = c.Days, c.URLsPerDay, c.RepeatsPerDay
		return nil
	}
}

// WithScenario selects a named world-construction preset from the
// scenario registry (see Scenarios for the catalog). The preset decides
// how the four generator axes behave — topology shape, churn process,
// censor regime, platform profile — while WithScale/WithSeed keep deciding
// the dimensions and randomness. Same preset + same seed is bit-identical
// across runs and across serial/parallel/streaming execution.
//
// Scenario selection is position-independent: like WithScenarioSpec, it
// survives a later WithConfig (the last scenario option wins over any
// Config.Scenario a WithConfig carries).
func WithScenario(name string) Option {
	return func(e *Experiment) error {
		if name == "" {
			return fmt.Errorf("churntomo: WithScenario: empty scenario name (omit the option for %q)", ScenarioBaseline)
		}
		if _, err := resolveScenario(name); err != nil {
			return err
		}
		e.base.Scenario = name
		e.scenarioName = name
		e.specOverride = nil // a later name wins over an earlier spec
		return nil
	}
}

// WithScenarioSpec drives world construction through an explicitly
// composed spec instead of a registered preset — mix and match the
// provider axes (spec fields left nil use the paper-baseline provider for
// that axis). The spec's name is recorded in results; it defaults to
// "custom".
func WithScenarioSpec(spec ScenarioSpec) Option {
	return func(e *Experiment) error {
		if spec.Name == "" {
			spec.Name = "custom"
		}
		e.specOverride = &spec
		e.scenarioName = ""
		e.base.Scenario = spec.Name
		return nil
	}
}

// WithSeed sets the master random seed. Seed 0 is rejected: by the Config
// zero-value rule a zero Seed field means "use the default" (seed 1), so
// an explicit WithSeed(0) would silently run under a different seed than
// the one named — name the seed you want, or omit the option for the
// default.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) error {
		if seed == 0 {
			return fmt.Errorf("churntomo: WithSeed(0): seed 0 is the Config zero value and would silently become the default seed 1; pass the seed to run under, or omit the option")
		}
		e.base.Seed = seed
		return nil
	}
}

// WithSource sets where the experiment's measurements come from: a
// ScenarioSource (the default — synthesize from the configured scenario),
// a FileSource (replay an exported dataset), an in-memory *Dataset, or
// any external Source implementation. Every execution mode consumes the
// source's day batches: batch localizes them at once, streaming replays
// them day by day through the incremental engine, and each matrix cell
// opens the source under its own cell config.
func WithSource(src Source) Option {
	return func(e *Experiment) error {
		if src == nil {
			return fmt.Errorf("churntomo: WithSource(nil): source must be non-nil")
		}
		e.source = src
		return nil
	}
}

// WithSources switches the experiment to matrix mode with one cell per
// source, all analyzed under the base configuration — comparing datasets
// (several exported files, a synthesis next to a recording) under
// identical analysis knobs. Mutually exclusive with the other matrix
// shapes (WithSeedSweep, WithScaleSweep, WithConfigs) and with WithSource.
func WithSources(srcs ...Source) Option {
	return func(e *Experiment) error {
		if len(srcs) == 0 {
			return fmt.Errorf("churntomo: WithSources: at least one source required")
		}
		for i, src := range srcs {
			if src == nil {
				return fmt.Errorf("churntomo: WithSources: source %d is nil", i)
			}
		}
		e.cellSources = append([]Source(nil), srcs...)
		return nil
	}
}

// WithInput analyzes the dataset file at path instead of synthesizing
// measurements — shorthand for WithSource(&FileSource{Path: path}). The
// file is one written by Result.Export or genlab -export; its world
// metadata (scenario label, seed, period, vantage/target/AS tables)
// overrides the corresponding Config dimensions at run time.
func WithInput(path string) Option {
	return func(e *Experiment) error {
		if path == "" {
			return fmt.Errorf("churntomo: WithInput: empty dataset path")
		}
		e.source = &FileSource{Path: path}
		return nil
	}
}

// WithWorkers bounds the per-stage parallelism of each pipeline:
// measurement-day sharding, CNF grouping, materialization and solving.
// 0 uses GOMAXPROCS, 1 forces fully serial execution; results are
// identical at every setting.
func WithWorkers(n int) Option {
	return func(e *Experiment) error {
		if n < 0 {
			return fmt.Errorf("churntomo: WithWorkers(%d): worker count must be >= 0 (0 = GOMAXPROCS)", n)
		}
		e.base.Workers = n
		return nil
	}
}

// WithDays sets the measurement window length in days.
func WithDays(n int) Option {
	return func(e *Experiment) error {
		if n < 1 {
			return fmt.Errorf("churntomo: WithDays(%d): day count must be >= 1", n)
		}
		e.base.Days = n
		return nil
	}
}

// WithStart anchors the measurement period (the zero value means
// 2016-05-01, the paper's window).
func WithStart(t time.Time) Option {
	return func(e *Experiment) error {
		e.base.Start = t
		return nil
	}
}

// WithWindow switches the experiment to streaming mode with a sliding
// window of the given width in days. 0 means cumulative: every window
// starts at day 0 and only the end advances, so the final window
// reproduces the batch pipeline exactly.
func WithWindow(days int) Option {
	return func(e *Experiment) error {
		if days < 0 {
			return fmt.Errorf("churntomo: WithWindow(%d): window must be >= 0 days (0 = cumulative)", days)
		}
		e.streaming = true
		e.window = days
		return nil
	}
}

// WithStride switches the experiment to streaming mode and sets how many
// days the window advances between localizations (0 means 1: a window per
// day once the first fills).
func WithStride(days int) Option {
	return func(e *Experiment) error {
		if days < 0 {
			return fmt.Errorf("churntomo: WithStride(%d): stride must be >= 0 days (0 = every day)", days)
		}
		e.streaming = true
		e.stride = days
		return nil
	}
}

// WithStreaming switches the experiment to streaming mode with the default
// cumulative window and per-day stride — shorthand for WithWindow(0).
func WithStreaming() Option {
	return func(e *Experiment) error {
		e.streaming = true
		return nil
	}
}

// WithMinCNFs sets the corroboration threshold for naming a censor: an AS
// must be the unique solution of at least n distinct CNFs. 0 means the
// pipeline default (8). Applies to batch identification and to every
// streaming window.
func WithMinCNFs(n int) Option {
	return func(e *Experiment) error {
		if n < 0 {
			return fmt.Errorf("churntomo: WithMinCNFs(%d): threshold must be >= 0 (0 = pipeline default)", n)
		}
		e.minCNFs = n
		return nil
	}
}

// WithSeedSweep switches the experiment to matrix mode: n whole pipelines
// with consecutive seeds starting at the base seed, run concurrently and
// aggregated — the standard way to measure identification stability under
// substrate resampling. n == 1 is equivalent to a single batch run.
func WithSeedSweep(n int) Option {
	return func(e *Experiment) error {
		if n < 1 {
			return fmt.Errorf("churntomo: WithSeedSweep(%d): sweep size must be >= 1", n)
		}
		e.seedSweep = n
		return nil
	}
}

// WithScaleSweep switches the experiment to matrix mode: one cell per
// factor, scaling the base config's platform dimensions (vantages, URLs,
// days) while keeping its seed and topology fixed — a fleet-growth
// ablation. Factors below the minimum viable platform clamp to 2
// vantages/URLs and 1 day.
func WithScaleSweep(factors ...float64) Option {
	return func(e *Experiment) error {
		if len(factors) == 0 {
			return fmt.Errorf("churntomo: WithScaleSweep: at least one factor required")
		}
		for _, f := range factors {
			if f <= 0 {
				return fmt.Errorf("churntomo: WithScaleSweep: factor %v must be > 0", f)
			}
		}
		e.scaleFactors = append([]float64(nil), factors...)
		return nil
	}
}

// WithConfigs switches the experiment to matrix mode over an explicit,
// hand-built grid of configurations (an ablation grid, a mixed sweep).
func WithConfigs(cfgs ...Config) Option {
	return func(e *Experiment) error {
		if len(cfgs) == 0 {
			return fmt.Errorf("churntomo: WithConfigs: at least one config required")
		}
		e.cells = append([]Config(nil), cfgs...)
		return nil
	}
}

// WithMatrixWorkers bounds how many matrix cells run concurrently — as
// goroutines sharing this process; 0 uses GOMAXPROCS. For wide matrices it
// usually pays to combine this with WithWorkers(1) and let the matrix
// supply the concurrency. churnlab leaves it at GOMAXPROCS and sets
// WithWorkers(1) for -matrix runs unless -parallel says otherwise.
func WithMatrixWorkers(n int) Option {
	return func(e *Experiment) error {
		if n < 0 {
			return fmt.Errorf("churntomo: WithMatrixWorkers(%d): worker count must be >= 0 (0 = GOMAXPROCS)", n)
		}
		e.matrixWorkers = n
		return nil
	}
}

// WithObserver registers an observer for the experiment's event stream;
// repeat to register several. See Observer for the delivery contract.
func WithObserver(obs Observer) Option {
	return func(e *Experiment) error {
		if obs == nil {
			return fmt.Errorf("churntomo: WithObserver(nil): observer must be non-nil")
		}
		e.observers = append(e.observers, obs)
		return nil
	}
}

// WithChurnAblation additionally runs the no-churn ablation (the paper's
// Figure 4): CNFs are rebuilt from first-observed-path records only and
// their model counts bucketed, populating Result.NoChurn. Costs one extra
// build+count pass over the dataset.
func WithChurnAblation() Option {
	return func(e *Experiment) error {
		e.ablation = true
		return nil
	}
}
