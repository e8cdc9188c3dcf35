package churntomo

// Functional options for New. Every option validates its argument and
// returns a descriptive error from New instead of silently misbehaving at
// run time.

import "fmt"

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
// Scenario selection is position-independent: it survives a later
// WithConfig (the last WithScenario wins over any Config.Scenario a
// WithConfig carries). To run a composed world, register its spec with
// RegisterScenario and select it here by name.
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
// any external Source implementation. Batch localizes the source's day
// batches at once and streaming replays them day by day through the
// incremental engine; a seed sweep takes only a ScenarioSource, which each
// matrix cell opens under its own cell config.
func WithSource(src Source) Option {
	return func(e *Experiment) error {
		if src == nil {
			return fmt.Errorf("churntomo: WithSource(nil): source must be non-nil")
		}
		e.source = src
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
// 0 uses GOMAXPROCS, 1 runs every stage serially but one: decoding a
// WithInput file always inflates on one goroutine while it parses on
// another. Results are identical at every setting.
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
// substrate resampling. n == 1 is equivalent to a single batch run. Up to
// GOMAXPROCS cells run at once, each on its own goroutine; WithWorkers
// still bounds every cell's stage pools, so a wide sweep usually pairs
// with WithWorkers(1), as churnlab -matrix does.
func WithSeedSweep(n int) Option {
	return func(e *Experiment) error {
		if n < 1 {
			return fmt.Errorf("churntomo: WithSeedSweep(%d): sweep size must be >= 1", n)
		}
		e.seedSweep = n
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
