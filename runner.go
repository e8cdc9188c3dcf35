package churntomo

import (
	"context"
	"fmt"
	"io"
	"sort"

	"churntomo/internal/anomaly"
	"churntomo/internal/sat"
	"churntomo/internal/stream"
	"churntomo/internal/topology"
)

// Runner executes a matrix of Configs — seed sweeps, scale sweeps, ablation
// grids — with whole pipelines running concurrently, and feeds the results
// to AggregateMatrix. Each cell is an independent deterministic pipeline,
// so a matrix run is reproducible cell-by-cell regardless of scheduling.
//
// Deprecated: use New(WithConfigs(cfgs...), WithMatrixWorkers(n)) — or
// WithSeedSweep/WithScaleSweep — and Experiment.Run(ctx), which add
// cancellation and an aggregated Result. Runner remains a thin shim over
// the same code path.
type Runner struct {
	// Workers is how many pipelines run at once; 0 uses GOMAXPROCS.
	// Stage-level parallelism inside each pipeline still follows that
	// cell's Config.Workers, so for wide matrices it usually pays to set
	// Config.Workers to 1 and let the matrix supply the concurrency.
	Workers int
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// MatrixResult is one matrix cell's outcome.
type MatrixResult struct {
	Index  int
	Config Config
	// Pipeline holds the cell's full internal artifacts; nil for failed
	// cells.
	Pipeline *Pipeline
	Err      error
}

// RunMatrix runs every config and returns results in input order. A failed
// cell carries its error instead of aborting the sweep.
//
// Deprecated: use New(WithConfigs(cfgs...)) and Experiment.Run(ctx).
func (r *Runner) RunMatrix(cfgs []Config) []MatrixResult {
	e := &Experiment{cells: append([]Config(nil), cfgs...), matrixWorkers: r.Workers}
	if r.Progress != nil {
		e.observers = []Observer{TextObserver(r.Progress)}
	}
	return e.runMatrixCells(context.Background(), e.matrixConfigs())
}

// SeedSweep derives n configs from base with consecutive seeds starting at
// base.Seed — the standard way to measure how stable an identification is
// under substrate resampling.
func SeedSweep(base Config, n int) []Config {
	base.fillDefaults()
	out := make([]Config, n)
	for i := range out {
		out[i] = base
		out[i].Seed = base.Seed + uint64(i)
	}
	return out
}

// ScaleSweep derives one config per factor, scaling the platform dimensions
// (vantages, URLs, days) of base while keeping its seed and topology fixed
// — a fleet-growth ablation. Factors below the minimum viable platform are
// clamped to 2 vantages/URLs and 1 day.
func ScaleSweep(base Config, factors []float64) []Config {
	base.fillDefaults()
	scale := func(n int, f float64, min int) int {
		v := int(float64(n) * f)
		if v < min {
			v = min
		}
		return v
	}
	out := make([]Config, len(factors))
	for i, f := range factors {
		out[i] = base
		out[i].Vantages = scale(base.Vantages, f, 2)
		out[i].URLs = scale(base.URLs, f, 2)
		out[i].Days = scale(base.Days, f, 1)
	}
	return out
}

// StreamConfig parameterizes a streaming replay (see StreamSweep).
type StreamConfig struct {
	// Window is the sliding window's width in days; 0 means cumulative
	// (every window starts at day 0), in which case the final window
	// reproduces the batch pipeline exactly. Negative is invalid.
	Window int
	// Stride is how many days the window advances between localizations;
	// 0 means 1. Negative is invalid.
	Stride int
	// MinCNFs is the per-window corroboration threshold for naming a
	// censor; 0 uses the pipeline default. Negative is invalid.
	MinCNFs int
}

// Validate rejects configurations that earlier versions silently
// misinterpreted (a negative Stride, for example, was treated as 1).
func (sc StreamConfig) Validate() error {
	if sc.Window < 0 {
		return fmt.Errorf("churntomo: StreamConfig.Window is %d; the window width must be >= 0 days (0 = cumulative)", sc.Window)
	}
	if sc.Stride < 0 {
		return fmt.Errorf("churntomo: StreamConfig.Stride is %d; the stride must be >= 0 days (0 = every day)", sc.Stride)
	}
	if sc.MinCNFs < 0 {
		return fmt.Errorf("churntomo: StreamConfig.MinCNFs is %d; the corroboration threshold must be >= 0 (0 = pipeline default)", sc.MinCNFs)
	}
	return nil
}

// StreamRun is a streaming replay's result: the substrate and full dataset,
// the per-window localization timeline, and the per-censor convergence
// stats derived from it.
type StreamRun struct {
	// Pipeline holds the substrate and the complete measured Dataset
	// (identical to a batch run's); its Localize artifacts are not
	// populated — the Windows timeline replaces them.
	Pipeline *Pipeline
	// Windows is the emitted timeline, in order.
	Windows []*stream.Window //churnvet:ok internalimport -- deprecated pre-Experiment surface; Result.Windows is the exported form
	// Convergence summarizes each ever-identified censor's trajectory:
	// first window seen, how many windows until it stabilized.
	Convergence []stream.Convergence //churnvet:ok internalimport -- deprecated pre-Experiment surface; Result.Convergence is the exported form
}

// Final returns the last emitted window, or nil when the replay was too
// short to fill one.
//
//churnvet:ok internalimport -- deprecated pre-Experiment surface; Result.FinalWindow is the exported form
func (sr *StreamRun) Final() *stream.Window {
	if len(sr.Windows) == 0 {
		return nil
	}
	return sr.Windows[len(sr.Windows)-1]
}

// StreamSweep replays one scenario day by day through the streaming
// localizer: measurement days are generated in parallel shards (exactly the
// batch engine's schedule), then pushed in day order into a stream.Engine
// that re-solves only the CNFs each day boundary touches. Substrate-stage
// progress goes to cfg.Progress, per-window progress to r.Progress; sc is
// validated up front (see StreamConfig.Validate).
//
// With sc.Window == 0 the replay is cumulative and the final window's
// identifications are identical to Run's on the same Config — the streaming
// determinism guarantee, pinned by TestStreamReplayMatchesBatch.
//
// Deprecated: use New(WithConfig(cfg), WithWindow(sc.Window),
// WithStride(sc.Stride)) and Experiment.Run(ctx).
func (r *Runner) StreamSweep(cfg Config, sc StreamConfig) (*StreamRun, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &Experiment{
		base:      cfg,
		streaming: true,
		window:    sc.Window,
		stride:    sc.Stride,
		minCNFs:   sc.MinCNFs,
	}
	e.base.Progress = nil
	// Legacy writer split: substrate stages printed to cfg.Progress (the
	// old path called Prepare, which stopped before the measurement
	// line), window lines to r.Progress (churnlab pointed both at
	// stderr). StageMeasure is excluded to keep the shim's output
	// byte-identical to the legacy StreamSweep's.
	if cfg.Progress != nil {
		stages := TextObserver(cfg.Progress)
		e.observers = append(e.observers, func(ev Event) {
			if ev.Stage != StageWindow && ev.Stage != StageMeasure {
				stages(ev)
			}
		})
	}
	if r.Progress != nil {
		windows := TextObserver(r.Progress)
		e.observers = append(e.observers, func(ev Event) {
			if ev.Stage == StageWindow {
				windows(ev)
			}
		})
	}
	cell, err := e.runCell(context.Background(), e.base, -1)
	if err != nil {
		return nil, err
	}
	return &StreamRun{
		Pipeline:    cell.pipe,
		Windows:     cell.windows,
		Convergence: cell.conv,
	}, nil
}

// AggregatedCensor is one AS's identification record across a matrix.
type AggregatedCensor struct {
	ASN topology.ASN
	// Runs is how many successful cells identified the AS.
	Runs int
	// CNFs is the total number of corroborating unique-solution CNFs
	// across those cells.
	CNFs int
	// Kinds unions the anomaly kinds the AS was identified for.
	Kinds anomaly.Set
}

// MatrixAggregate fuses a matrix's per-cell results.
type MatrixAggregate struct {
	Runs   int // successful cells
	Failed int
	// Censors maps each AS identified by at least one cell to its record.
	Censors map[topology.ASN]*AggregatedCensor
	// UniqueCNFs and TotalCNFs count unique-solution and all CNFs across
	// cells.
	UniqueCNFs, TotalCNFs int
	// LeakASes and LeakCountries sum the per-cell leakage summaries
	// (censors leaking to other ASes / to other countries).
	LeakASes, LeakCountries int
}

// AggregateMatrix folds matrix results into one summary. Failed cells are
// counted and otherwise skipped. Every fold is commutative (sums, unions),
// which is what makes the merged result independent of worker count and
// scheduling.
func AggregateMatrix(results []MatrixResult) *MatrixAggregate {
	agg := &MatrixAggregate{Censors: map[topology.ASN]*AggregatedCensor{}}
	for _, res := range results {
		p := res.Pipeline
		if res.Err != nil || p == nil {
			agg.Failed++
			continue
		}
		agg.Runs++
		agg.TotalCNFs += len(p.Outcomes)
		for _, o := range p.Outcomes {
			if o.Class == sat.Unique {
				agg.UniqueCNFs++
			}
		}
		for asn, c := range p.Identified {
			a := agg.Censors[asn]
			if a == nil {
				a = &AggregatedCensor{ASN: asn}
				agg.Censors[asn] = a
			}
			a.Runs++
			a.CNFs += c.CNFs
			a.Kinds |= c.Kinds
		}
		if p.Leakage != nil {
			agg.LeakASes += p.Leakage.LeakToOtherASes()
			agg.LeakCountries += p.Leakage.LeakToOtherCountries()
		}
	}
	return agg
}

// StableCensors lists the ASes identified by every successful cell,
// ascending — the identifications that survive substrate resampling.
func (a *MatrixAggregate) StableCensors() []topology.ASN {
	var out []topology.ASN
	for asn, c := range a.Censors {
		if a.Runs > 0 && c.Runs == a.Runs {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RankedCensors lists all aggregated censors, most-corroborated first
// (by identifying runs, then total CNFs, then ASN).
func (a *MatrixAggregate) RankedCensors() []*AggregatedCensor {
	out := make([]*AggregatedCensor, 0, len(a.Censors))
	for _, c := range a.Censors {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		if out[i].CNFs != out[j].CNFs {
			return out[i].CNFs > out[j].CNFs
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}
