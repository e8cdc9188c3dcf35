package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"churntomo"
)

// scale fixes the world dimensions every workload runs at.
type scale struct {
	// dims carries the topology and platform dimensions and Workers; Seed,
	// Days and Scenario are set per world.
	dims churntomo.Config
	// synthDays and replayDays are the measurement periods of the
	// batch-synth world and of the exported replay world.
	synthDays, replayDays int
	// warmupDays is the period of batch-synth's warm-up run.
	warmupDays int
	// window is stream-replay's sliding window in days (stride 1).
	window int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

// scenarioName is the preset every workload builds its world under.
const scenarioName = "paper-baseline"

// minCNFs mirrors the pipeline's unexported corroboration threshold
// (identifyMinCNFs in the root package). The traced run re-derives it, so
// a drift shows up as a verdict mismatch, not as a different program timed.
const minCNFs = 8

// platformSeedOffset mirrors Config.platformConfig's Seed+5 offset, for
// the same reason.
const platformSeedOffset = 5

// benchScale is DefaultConfig's world (400 ASes, 40 vantages, 80 URLs, 20
// URLs a day, 2 repeats) on two workers, sized for a 2-core host.
var benchScale = func() scale {
	dims := churntomo.DefaultConfig()
	dims.Workers = 2
	return scale{dims: dims, synthDays: 60, replayDays: 120, warmupDays: 7, window: 30, setupReps: 2}
}()

// config returns the world configuration for one world seed and period.
func (s scale) config(seed uint64, days int) churntomo.Config {
	cfg := s.dims
	cfg.Seed = seed
	cfg.Days = days
	cfg.Scenario = scenarioName
	return cfg
}

// workload is one benchmark input and execution mode.
type workload struct {
	name string
	// family names the world catalog the workload draws from; workloads of
	// one family share their worlds (both replays use the same file).
	family string
	replay bool // the run replays an exported file with WithInput
	stream bool // the run localizes with a sliding window
}

// The world families.
const (
	familySynth  = "synth"
	familyReplay = "replay"
)

var workloads = []workload{
	{name: "batch-synth", family: familySynth},
	{name: "batch-replay", family: familyReplay, replay: true},
	{name: "stream-replay", family: familyReplay, replay: true, stream: true},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, wl := range workloads {
		out[i] = wl.name
	}
	return out
}

// days returns the world period of the workload's family.
func (s scale) days(family string) int {
	if family == familySynth {
		return s.synthDays
	}
	return s.replayDays
}

// bench is one workload bound to one catalog world.
type bench struct {
	sc    scale
	wl    workload
	world worldRef
	dir   string
	log   io.Writer
}

func newBench(sc scale, wl workload, ref *reference, seed uint64, dir string, log io.Writer) (*bench, error) {
	world, err := ref.pick(wl.family, seed)
	if err != nil {
		return nil, err
	}
	if _, ok := world.Verdicts[wl.name]; !ok {
		return nil, fmt.Errorf("reference world %d has no verdict for %s", world.Seed, wl.name)
	}
	return &bench{sc: sc, wl: wl, world: world, dir: dir, log: log}, nil
}

// filePath is where the replay workloads' exported world lives.
func (b *bench) filePath() string {
	return filepath.Join(b.dir, fmt.Sprintf("world-%d.jsonl.gz", b.world.Seed))
}

// setup does everything before the first timed run. For the replays that
// is synthesis plus export of the world, checked against the recorded
// file digest; for batch-synth it is a short warm-up run of the same world.
func (b *bench) setup(ctx context.Context) error {
	cfg := b.sc.config(b.world.Seed, b.sc.days(b.wl.family))
	if !b.wl.replay {
		cfg.Days = b.sc.warmupDays
		exp, err := churntomo.New(churntomo.WithConfig(cfg))
		if err != nil {
			return err
		}
		_, err = exp.Run(ctx)
		return err
	}
	sum, err := exportWorld(ctx, cfg, b.filePath())
	if err != nil {
		return err
	}
	if b.world.FileSHA256 != "" && sum != b.world.FileSHA256 {
		return fmt.Errorf("exported world %d has digest %s, reference %s: the synthesized input changed", b.world.Seed, sum, b.world.FileSHA256)
	}
	return nil
}

// exportWorld synthesizes and measures the world through the public
// Source API, writes it in the format-v1 file layout, and returns the
// file's SHA-256.
func exportWorld(ctx context.Context, cfg churntomo.Config, path string) (string, error) {
	ds, err := (&churntomo.ScenarioSource{}).Open(ctx, cfg)
	if err != nil {
		return "", err
	}
	if err := ds.WriteFile(path); err != nil {
		return "", err
	}
	return fileSHA256(path)
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// options returns the New options of one end-to-end run. Each replay run
// gets a fresh WithInput, so decoding is inside run_s as it is for
// churnlab -input.
func (b *bench) options() []churntomo.Option {
	var opts []churntomo.Option
	if b.wl.replay {
		opts = append(opts, churntomo.WithInput(b.filePath()), churntomo.WithWorkers(b.sc.dims.Workers))
	} else {
		opts = append(opts, churntomo.WithConfig(b.sc.config(b.world.Seed, b.sc.synthDays)))
	}
	if b.wl.stream {
		opts = append(opts, churntomo.WithWindow(b.sc.window), churntomo.WithStride(1))
	}
	return opts
}

// runOnce is one end-to-end run: New plus Run.
func (b *bench) runOnce(ctx context.Context) (*churntomo.Result, error) {
	exp, err := churntomo.New(b.options()...)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx)
}

// check compares a run's verdict with the reference.
func (b *bench) check(res *churntomo.Result) error {
	got := verdictOf(res, b.wl.stream)
	return got.diff(b.world.Verdicts[b.wl.name])
}

// endToEnd sets up, then repeats timed runs for at least d, checking
// every run's verdict against the reference.
func (b *bench) endToEnd(ctx context.Context, d time.Duration) (report, error) {
	var setups []float64
	for i := 0; i < b.sc.setupReps; i++ {
		start := time.Now()
		if err := b.setup(ctx); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fmt.Fprintf(b.log, "churnbench: %s set-up %d: %.3fs\n", b.wl.name, i+1, setups[i])
	}
	// Peak memory is the timed runs' own: return set-up garbage to the OS
	// and restart the kernel's high-water mark.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(b.log, "churnbench: peak RSS not reset, it includes set-up: %v\n", err)
	}

	var runs []float64
	attempted, failed := 0, 0
	for begin := time.Now(); attempted == 0 || time.Since(begin) < d; {
		start := time.Now()
		res, err := b.runOnce(ctx)
		elapsed := time.Since(start).Seconds()
		attempted++
		if err == nil {
			err = b.check(res)
		}
		if err != nil {
			failed++
			fmt.Fprintf(b.log, "churnbench: %s run %d: %v\n", b.wl.name, attempted, err)
			continue
		}
		fmt.Fprintf(b.log, "churnbench: %s run %d: %.3fs\n", b.wl.name, attempted, elapsed)
		runs = append(runs, elapsed)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"run_s":       median(runs),
		"peak_rss_mb": peak,
		"pass_frac":   float64(attempted-failed) / float64(attempted),
	}
	return newReport(endToEndMetrics, vals, attempted, failed)
}
