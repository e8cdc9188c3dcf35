// Package churntomo reproduces "A Churn for the Better: Localizing
// Censorship using Network-level Path Churn and Network Tomography"
// (Cho et al., CoNExT 2017) as a runnable system.
//
// The package ties together the full stack: a synthetic AS-level Internet
// with Gao–Rexford routing and BGP churn, an ICLab-style measurement
// platform (packet-level DNS/HTTP censorship tests, traceroutes, anomaly
// detectors), and the paper's boolean-network-tomography pipeline (per
// URL/time-slice/anomaly CNFs solved with a built-in SAT solver, candidate
// elimination, censor identification and leakage analysis).
//
// Typical use:
//
//	exp, err := churntomo.New(churntomo.WithScale(churntomo.ScaleSmall))
//	if err != nil { ... }
//	res, err := exp.Run(ctx)
//	if err != nil { ... }
//	for _, c := range res.Censors { ... }
//
// New constructs an Experiment from functional options; Experiment.Run
// executes batch, streaming (WithWindow/WithStride) or matrix
// (WithSeedSweep) runs through one cancelable code path, reporting
// progress as typed Events to registered observers and returning a Result
// expressed entirely in exported types.
//
// Where measurements come from is decoupled from how they are localized:
// a Source (see WithSource/WithInput) supplies day-ordered Measurement
// batches plus world metadata. The default ScenarioSource synthesizes
// them from the configured scenario; FileSource replays a dataset
// exported by Result.Export (genlab -export / churnlab -input at the
// CLI); external ingesters implement Source to analyze real recorded
// corpora through the same pipeline.
//
// Every run is deterministic for a given option set, at any WithWorkers
// setting: measurement days, CNF construction and solving are sharded
// across worker pools whose output is bit-identical to serial execution.
// Replaying an exported dataset reproduces the direct run's
// identifications byte for byte, in batch and streaming modes.
package churntomo

import (
	"context"
	"fmt"
	"strings"
	"time"

	"churntomo/internal/iclab"
	"churntomo/internal/leakage"
	"churntomo/internal/scenario"
	"churntomo/internal/stream"
	"churntomo/internal/tomo"
)

// Config scales a full experiment. The zero-value rule: a zero field
// means "use the default" — zero fields take DefaultConfig's values (and
// Seed 0 takes the default seed 1). Construction-time options therefore
// reject arguments equal to the zero value instead of silently renaming
// them (WithSeed(0) errors rather than running under seed 1).
type Config struct {
	Seed uint64

	// Scenario names the world-construction preset from the scenario
	// registry (see Scenarios for the catalog); "" means ScenarioBaseline,
	// the paper's original pipeline byte for byte. A composed spec is named
	// here once RegisterScenario has added it.
	Scenario string

	// Workers bounds the per-stage parallelism: measurement days are
	// sharded across this many goroutines, and CNF grouping,
	// materialization and solving use the same pool size. At 2 or more, a
	// single-cell run also computes Table 1 and the churn summary on one
	// goroutine of its own beside the localization (the batch build and
	// solve or the streaming replay), so up to Workers+1 goroutines run
	// during the solve. 0 uses GOMAXPROCS, 1 runs every stage serially
	// but one: decoding an input file (FileSource) always inflates on one
	// goroutine while it parses on another. Results are identical at
	// every setting — parallelism never changes the output.
	Workers int

	// Topology scale.
	ASes      int
	Countries int

	// Platform scale.
	Vantages      int
	URLs          int
	Days          int
	URLsPerDay    int
	RepeatsPerDay int

	// Start anchors the measurement period; the zero value means
	// 2016-05-01, matching the paper's window.
	Start time.Time
}

// DefaultConfig is a mid-scale year-long run (minutes of CPU).
func DefaultConfig() Config {
	return Config{
		Seed: 1, ASes: 400, Countries: 30,
		Vantages: 40, URLs: 80, Days: 366, URLsPerDay: 20, RepeatsPerDay: 2,
	}
}

// SmallConfig is a seconds-scale run for tests and examples.
func SmallConfig() Config {
	return Config{
		Seed: 1, ASes: 250, Countries: 25,
		Vantages: 16, URLs: 24, Days: 60, URLsPerDay: 8, RepeatsPerDay: 2,
	}
}

// PaperScaleConfig approaches the paper's dataset dimensions (539 vantage
// ASes, 774 URLs, a year of measurements). Expect a long run.
func PaperScaleConfig() Config {
	return Config{
		Seed: 1, ASes: 1200, Countries: 42,
		Vantages: 150, URLs: 250, Days: 366, URLsPerDay: 60, RepeatsPerDay: 2,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Scenario == "" {
		c.Scenario = scenario.DefaultName
	}
	if c.ASes == 0 {
		c.ASes = d.ASes
	}
	if c.Countries == 0 {
		c.Countries = d.Countries
	}
	if c.Vantages == 0 {
		c.Vantages = d.Vantages
	}
	if c.URLs == 0 {
		c.URLs = d.URLs
	}
	if c.Days == 0 {
		c.Days = d.Days
	}
	if c.URLsPerDay == 0 {
		c.URLsPerDay = d.URLsPerDay
	}
	if c.RepeatsPerDay == 0 {
		c.RepeatsPerDay = d.RepeatsPerDay
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	}
}

// identifyMinCNFs is the corroboration threshold for naming a censor: an
// AS must be the unique solution of at least this many CNFs. See
// tomo.IdentifyCensors.
const identifyMinCNFs = 8

// cell holds one run's internal artifacts: the world it ran in, the merged
// records, and the localization — batch outcomes or the streaming
// timeline. A single-cell Result keeps it (unexported) for Export,
// Dataset, Truth and ChokePoints; a matrix folds its cells into
// MatrixSummary and keeps none.
type cell struct {
	cfg Config // effective: defaults filled, source metadata adopted

	// world holds the topology, routing oracle, censor registry and
	// IP-to-AS history the measurements ran over, plus the vantage and
	// target tables and the period. A replayed world has only a metadata
	// graph, and no registry unless the file carries ground truth.
	world *iclab.Scenario
	// records is the run's record table in day order: the day shards
	// merged by iclab.MergeShards.
	records []iclab.Record

	// The batch localization; nil in streaming mode.
	outcomes   []tomo.Outcome
	identified map[ASN]*IdentifiedCensor
	leakage    *leakage.Analysis

	// Table 1 and the churn summary, computed beside the localization;
	// zero in matrix cells, which never report a Summary or churn.
	table1       iclab.Table1
	churn        []ChurnPeriod
	churnByClass []ClassChurn

	// The streaming timeline; nil in batch mode, and released once
	// singleResult has converted it. Every emitted window is kept for its
	// Identified set, but only the final one keeps its instances and
	// outcomes; windowResults is the timeline's public form.
	windows       []*stream.Window
	windowResults []WindowResult
	conv          []stream.Convergence
}

// final returns the last emitted window, or nil.
func (c *cell) final() *stream.Window {
	if len(c.windows) == 0 {
		return nil
	}
	return c.windows[len(c.windows)-1]
}

// resolveScenario maps a preset name ("" = the paper baseline) to its
// registered spec.
func resolveScenario(name string) (scenario.Spec, error) {
	if name == "" {
		name = scenario.DefaultName
	}
	spec, ok := scenario.Preset(name)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("churntomo: unknown scenario %q (known: %s)",
			name, strings.Join(scenario.SortedNames(), ", "))
	}
	return spec, nil
}

// buildStageOf maps a scenario build stage onto the public event stage.
func buildStageOf(s scenario.Stage) Stage {
	switch s {
	case scenario.StageTopology:
		return StageTopology
	case scenario.StageTimeline:
		return StageTimeline
	case scenario.StageCensors:
		return StageCensors
	case scenario.StageIPASMap:
		return StageIPASMap
	default:
		return StageScenario
	}
}

// prepareSpecCtx builds the substrate behind every Experiment cell by
// driving scenario.Build with the resolved spec: topology, churn timeline,
// censors, IP-to-AS history, measurement scenario. ctx is checked before
// each stage; emit receives one Event per stage.
func prepareSpecCtx(ctx context.Context, cfg Config, spec scenario.Spec, emit func(Event)) (*cell, error) {
	cfg.fillDefaults()
	params := scenario.Params{
		Seed: cfg.Seed,
		ASes: cfg.ASes, Countries: cfg.Countries,
		Vantages: cfg.Vantages, URLs: cfg.URLs,
		Start: cfg.Start, End: cfg.Start.AddDate(0, 0, cfg.Days),
	}
	onStage := func(s scenario.Stage) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev := newEvent(buildStageOf(s))
		ev.Stats.Seed = cfg.Seed
		switch s {
		case scenario.StageTopology:
			ev.Stats.ASes, ev.Stats.Countries = cfg.ASes, cfg.Countries
		case scenario.StageTimeline:
			ev.Stats.Days = cfg.Days
		case scenario.StagePlatform:
			ev.Stats.Vantages, ev.Stats.URLs = cfg.Vantages, cfg.URLs
		}
		emit(ev)
		return nil
	}
	w, err := scenario.Build(spec, params, onStage)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // cancellation, already unwrapped
		}
		return nil, fmt.Errorf("churntomo: %w", err)
	}
	return &cell{cfg: cfg, world: w.Platform}, nil
}

// platformConfig derives the measurement platform's configuration. Every
// execution mode (batch, streaming, ScenarioSource.Open, benchmarks) must
// measure through this one derivation — the replay-equals-batch guarantee
// rests on them agreeing on the seed offset and schedule knobs.
func (c *Config) platformConfig() iclab.PlatformConfig {
	return iclab.PlatformConfig{
		Seed:          c.Seed + 5,
		Workers:       c.Workers,
		URLsPerDay:    c.URLsPerDay,
		RepeatsPerDay: c.RepeatsPerDay,
	}
}
