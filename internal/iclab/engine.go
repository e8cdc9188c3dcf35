package iclab

import (
	"context"
	"sync"

	"churntomo/internal/parallel"
)

// This file is the sharded measurement engine. The schedule is
// embarrassingly parallel along days — the axis the paper itself slices on —
// so RunByDayCtx splits the window into one shard per day and measures
// shards on a worker pool; MergeShards concatenates them in day order.
// Determinism is preserved by construction rather than by locking: a day's
// randomness depends only on (seed, day index), never on which worker ran
// it or when. The one lock guards the free list of day scratches, which
// decides only which memory a day measures in.

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

// RunByDayCtx executes the measurement schedule over the scenario, one
// shard per day, sharding days across cfg.Workers goroutines; shards[d]
// holds day d's records. This is the emission shape both consumers want:
// a streaming localizer takes each shard as the day "arrives", and
// MergeShards over all shards is the batch record sequence. Deterministic
// for identical scenario and config at every worker count: parallel
// output is bit-identical to serial.
//
// The schedule has no conditional skips (an unreachable target still
// yields an eliminated record), so every day measures the same number of
// records. The call allocates one day-ordered table of days × per-day
// records up front and each day fills its own span: the shards are
// adjacent views of that table, and MergeShards returns it without a
// copy. A shard's capacity runs on into the following days, so the
// shards are read-only like the records they hold.
//
// Once ctx is done no further day shard starts and the call returns
// (nil, ctx.Err()). Days already in flight finish first, so cancellation
// latency is bounded by one day's measurement, not the whole schedule.
// The partially measured shards are discarded: day shards are only
// meaningful as a complete schedule.
//
// A day measures in a day scratch (a routing View and the per-test
// buffers) taken from the call's free list when it starts and put back,
// its View Reset, when it ends, so the call holds no more scratches than
// days ever measured at once: one per worker at most.
func RunByDayCtx(ctx context.Context, s *Scenario, cfg PlatformConfig) ([][]Record, error) {
	cfg.fillDefaults()
	days, perDay := s.Days(), s.recordsPerDay(cfg)
	table := make([]Record, days*perDay)
	shards := make([][]Record, days)
	var free scratchList
	if err := parallel.ForEachCtx(ctx, cfg.Workers, days, func(day int) {
		sc := free.take(s)
		shards[day] = table[day*perDay : (day+1)*perDay]
		s.runDay(cfg, day, sc, shards[day])
		free.put(sc)
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// recordsPerDay is how many records one day of the schedule measures.
func (s *Scenario) recordsPerDay(cfg PlatformConfig) int {
	return cfg.URLsPerDay * len(s.Vantages) * cfg.RepeatsPerDay
}

// scratchList is one RunByDayCtx call's free list of day scratches.
type scratchList struct {
	mu   sync.Mutex
	free []*dayScratch
}

// take returns a free scratch, or a new one when every scratch is in use.
func (l *scratchList) take(s *Scenario) *dayScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return s.newDayScratch()
	}
	sc := l.free[n-1]
	l.free = l.free[:n-1]
	return sc
}

// put Resets sc's View, dropping the day's trees, and frees sc for the
// next day.
func (l *scratchList) put(sc *dayScratch) {
	sc.view.Reset()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, sc)
}

// NewDataset assembles a Dataset from already-measured records (typically a
// MergeShards result) and computes its Table 1 statistics.
func NewDataset(s *Scenario, records []Record) *Dataset {
	ds := &Dataset{Scenario: s, Records: records}
	ds.Stats = ComputeTable1(ds)
	return ds
}

// MergeShards returns per-day record shards as one sequence in shard
// order. When the shards are adjacent views of one array, as
// RunByDayCtx's and a decoded dataset's are, it returns that array's span
// without copying, capped at its end; otherwise it concatenates them into
// a new slice, sharing the records' own slices. Either way the result
// holds the same records in the same order, so correctness never depends
// on the layout.
func MergeShards(shards [][]Record) []Record {
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	if span, ok := adjacentSpan(shards, total); ok {
		return span
	}
	out := make([]Record, 0, total)
	for _, sh := range shards {
		out = append(out, sh...)
	}
	return out
}

// adjacentSpan reports whether the non-empty shards lie back to back in
// one array and, if so, returns the span of total records they cover. The
// first shard's capacity must reach the span's end, and every later
// shard must start at the element the span has at its offset: element
// addresses, compared as pointers.
func adjacentSpan(shards [][]Record, total int) ([]Record, bool) {
	var span []Record
	off := 0
	for _, sh := range shards {
		if len(sh) == 0 {
			continue
		}
		if span == nil {
			if cap(sh) < total {
				return nil, false
			}
			span = sh[:total:total]
		} else if &span[off] != &sh[0] {
			return nil, false
		}
		off += len(sh)
	}
	return span, span != nil
}
