package iclab

import (
	"context"

	"churntomo/internal/parallel"
)

// This file is the sharded measurement engine. The schedule is
// embarrassingly parallel along days — the axis the paper itself slices on —
// so Run splits the window into one shard per day, measures shards on a
// worker pool, and concatenates the results in day order. Determinism is
// preserved by construction rather than by locking: a day's randomness
// depends only on (seed, day index), never on which worker ran it or when.

// DaySeed derives the deterministic RNG seed for one day's measurement
// shard from the platform seed and the day index. It is a splitmix64
// finalizer over the golden-ratio-spaced day sequence: nearby days (and
// nearby base seeds) yield statistically unrelated streams.
func DaySeed(base uint64, day int) uint64 {
	z := base + uint64(day)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Days returns the number of measurement days in the scenario window — the
// shard count of a platform run.
func (s *Scenario) Days() int {
	n := 0
	for at := s.Start; at.Before(s.End); at = at.AddDate(0, 0, 1) {
		n++
	}
	return n
}

// Run executes the measurement schedule over the scenario, sharding days
// across cfg.Workers goroutines. Deterministic for identical scenario and
// config at every worker count: parallel output is bit-identical to serial.
func Run(s *Scenario, cfg PlatformConfig) *Dataset {
	ds, _ := RunCtx(context.Background(), s, cfg)
	return ds
}

// RunCtx is Run with cooperative cancellation: once ctx is done no further
// day shard starts and the call returns (nil, ctx.Err()). Days already in
// flight finish first, so cancellation latency is bounded by one day's
// measurement, not the whole schedule.
//
// Every day shard is the same size (Scenario.ShardSize), so the merged
// record sequence is laid out once up front and each worker measures its
// day directly into its slot — no per-day slices, no concatenation copy.
// The output is identical to MergeShards over RunByDayCtx's shards.
func RunCtx(ctx context.Context, s *Scenario, cfg PlatformConfig) (*Dataset, error) {
	cfg.fillDefaults()
	days := s.Days()
	per := s.ShardSize(cfg)
	records := make([]Record, days*per)
	if err := parallel.ForEachCtx(ctx, cfg.Workers, days, func(day int) {
		s.runDayInto(cfg, day, records[day*per:(day+1)*per])
	}); err != nil {
		return nil, err
	}
	for i := range records {
		records[i].ID = int32(i)
	}
	ds := &Dataset{Scenario: s, Records: records}
	ds.Stats = ComputeTable1(ds)
	return ds, nil
}

// RunByDay executes the same schedule as Run but keeps the output sharded
// by day — shards[d] holds day d's records, IDs unassigned. This is the
// emission shape streaming consumers want: each shard can be pushed into a
// windowed localizer as the day "arrives", and MergeShards over all shards
// reconstructs exactly Run's record sequence.
func RunByDay(s *Scenario, cfg PlatformConfig) [][]Record {
	shards, _ := RunByDayCtx(context.Background(), s, cfg)
	return shards
}

// RunByDayCtx is RunByDay with cooperative cancellation; see RunCtx. The
// partially measured shards are discarded on cancellation — day shards are
// only meaningful as a complete schedule.
func RunByDayCtx(ctx context.Context, s *Scenario, cfg PlatformConfig) ([][]Record, error) {
	cfg.fillDefaults()
	days := s.Days()
	shards := make([][]Record, days)
	if err := parallel.ForEachCtx(ctx, cfg.Workers, days, func(day int) {
		shards[day] = s.runDay(cfg, day)
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// NewDataset assembles a Dataset from already-measured records (typically a
// MergeShards result) and computes its Table 1 statistics.
func NewDataset(s *Scenario, records []Record) *Dataset {
	ds := &Dataset{Scenario: s, Records: records}
	ds.Stats = ComputeTable1(ds)
	return ds
}

// MergeShards concatenates per-day record shards in shard order and assigns
// the global record IDs the merged sequence implies.
func MergeShards(shards [][]Record) []Record {
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	out := make([]Record, 0, total)
	for _, sh := range shards {
		out = append(out, sh...)
	}
	for i := range out {
		out[i].ID = int32(i)
	}
	return out
}
