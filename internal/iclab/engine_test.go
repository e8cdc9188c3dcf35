package iclab

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"churntomo/internal/routing"
)

func TestDaySeedDistinctAndStable(t *testing.T) {
	const base = 0xdeadbeef
	seen := map[uint64]int{}
	for day := 0; day < 4096; day++ {
		s := DaySeed(base, day)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DaySeed collision: days %d and %d both map to %#x", prev, day, s)
		}
		seen[s] = day
		if s != DaySeed(base, day) {
			t.Fatalf("DaySeed not stable for day %d", day)
		}
	}
	// Different bases must decorrelate even at the same day index.
	if DaySeed(1, 0) == DaySeed(2, 0) {
		t.Error("distinct bases share day-0 seed")
	}
	// Nearby seeds should not produce shifted copies of the same schedule.
	if DaySeed(1, 1) == DaySeed(2, 0) {
		t.Error("seed/day lattice aliases: (1,1) == (2,0)")
	}
}

// TestMergeShardsOrder pins MergeShards' sequence on both of its paths:
// adjacent views of one table come back as that table's own storage, with
// no allocation, and any other layout is copied into the same sequence.
func TestMergeShardsOrder(t *testing.T) {
	urls := func(recs []Record) []string {
		var out []string
		for _, r := range recs {
			out = append(out, r.URL)
		}
		return out
	}
	table := []Record{{URL: "day0-a"}, {URL: "day0-b"}, {URL: "day2-a"}, {URL: "day3-a"}, {URL: "day3-b"}}
	check := func(name string, shards [][]Record, want []string, shared bool) {
		t.Helper()
		merged := MergeShards(shards)
		if got := urls(merged); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged %q, want %q", name, got, want)
		}
		if len(merged) == 0 {
			return
		}
		inPlace := &merged[0] == &table[0]
		if inPlace != shared {
			t.Errorf("%s: merged sequence in the table's storage = %v, want %v", name, inPlace, shared)
		}
		if shared {
			if cap(merged) != len(merged) {
				t.Errorf("%s: the shared span has capacity %d beyond its %d records", name, cap(merged), len(merged))
			}
			if n := testing.AllocsPerRun(10, func() { MergeShards(shards) }); n != 0 {
				t.Errorf("%s: merging views of one table allocated %v times", name, n)
			}
		}
	}

	// Adjacent views, with an empty day between and after them.
	views := [][]Record{table[0:2], nil, table[2:3], table[3:5], table[5:5]}
	check("adjacent views", views, urls(table), true)
	check("a view of the table's head", [][]Record{table[0:2], table[2:3]}, []string{"day0-a", "day0-b", "day2-a"}, true)

	// Views out of order, with a gap, or with capped capacity are copied.
	check("reordered views", [][]Record{table[2:3], table[0:2]}, []string{"day2-a", "day0-a", "day0-b"}, false)
	check("views with a gap", [][]Record{table[0:2], nil, table[3:5]}, []string{"day0-a", "day0-b", "day3-a", "day3-b"}, false)
	check("capped views", [][]Record{table[0:2:2], table[2:3:3]}, []string{"day0-a", "day0-b", "day2-a"}, false)

	// Separately allocated days are copied in shard order.
	separate := [][]Record{
		{{URL: "day0-a"}, {URL: "day0-b"}},
		nil, // an empty day must not disturb the sequence
		{{URL: "day2-a"}},
	}
	merged := MergeShards(separate)
	if got, want := urls(merged), []string{"day0-a", "day0-b", "day2-a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("separate days: merged %q, want %q", got, want)
	}
	if &merged[0] == &separate[0][0] {
		t.Error("separate days: the merged sequence shares the first day's storage")
	}
	if got := MergeShards([][]Record{nil, {}}); len(got) != 0 {
		t.Errorf("empty days merged into %d records", len(got))
	}
}

// TestParallelRunMatchesSerial is the engine's core guarantee: sharding the
// schedule across workers yields bit-identical records, in the same order,
// as the serial path.
func TestParallelRunMatchesSerial(t *testing.T) {
	s := buildStack(t, 11, 8)
	base := PlatformConfig{Seed: 7, URLsPerDay: 3, RepeatsPerDay: 2}

	serialCfg := base
	serialCfg.Workers = 1
	serial := run(t, s, serialCfg)

	for _, workers := range []int{2, 7, 8, 32} {
		parCfg := base
		parCfg.Workers = workers
		par := run(t, buildStack(t, 11, 8), parCfg)
		if len(par.Records) != len(serial.Records) {
			t.Fatalf("workers=%d: %d records vs %d serial", workers, len(par.Records), len(serial.Records))
		}
		for i := range serial.Records {
			if !reflect.DeepEqual(serial.Records[i], par.Records[i]) {
				t.Fatalf("workers=%d: record %d differs from serial run", workers, i)
			}
		}
		if !reflect.DeepEqual(serial.Stats, par.Stats) {
			t.Fatalf("workers=%d: Table1 stats differ from serial run", workers)
		}
	}
}

// TestDaysStartOnEmptyViews: a day's routing work must not depend on the
// days its worker measured before. Every View is bounded at the most trees
// one day builds on a fresh View, so a View that kept one day's trees
// into the next would reach the bound and drop them mid-day; at every
// worker count the run must ask the path queries and build the trees
// that measuring each day on a fresh View does, which is what makes the
// tree count a pure function of the world.
func TestDaysStartOnEmptyViews(t *testing.T) {
	cfg := PlatformConfig{Seed: 7, URLsPerDay: 24, RepeatsPerDay: 2}
	ref := buildStack(t, 11, 6)
	fresh := cfg
	fresh.fillDefaults()
	most := 0
	for day := range ref.Days() {
		_, before := ref.Oracle.Stats()
		ref.runDay(fresh, day, ref.newDayScratch(), make([]Record, ref.recordsPerDay(fresh)))
		_, after := ref.Oracle.Stats()
		most = max(most, after-before)
	}
	wantQ, wantC := ref.Oracle.Stats()
	for _, workers := range []int{1, 2, 6} {
		s := buildStack(t, 11, 6)
		s.Oracle = routing.NewOracle(s.Graph, s.Oracle.TL, most)
		pc := cfg
		pc.Workers = workers
		if _, err := RunByDayCtx(context.Background(), s, pc); err != nil {
			t.Fatal(err)
		}
		if q, c := s.Oracle.Stats(); q != wantQ || c != wantC {
			t.Errorf("workers=%d: %d path queries and %d trees built; a fresh View per day: %d and %d",
				workers, q, c, wantQ, wantC)
		}
	}
}

func TestScenarioDays(t *testing.T) {
	s := buildStack(t, 12, 9)
	if got := s.Days(); got != 9 {
		t.Fatalf("Days() = %d, want 9", got)
	}
}

// TestMeasureAllocationBudget bounds the heap one measurement allocates
// per record, day scratches and records included. A worker measures
// every day in one scratch (a routing View and the per-test buffers), so
// the heap grows with the records, not with the tests and days that
// discard buffers. Workers is 1 because with more workers the number of
// scratches depends on scheduling. The test must not run in parallel
// with others: TotalAlloc counts every goroutine's allocations.
func TestMeasureAllocationBudget(t *testing.T) {
	// About 1.5 times what this world measured when the budget was set,
	// 1,544 bytes a record (1,690 under -race); measuring with a fresh
	// View every day and fresh buffers every test took 10,562.
	const budget = 2300
	s := buildStack(t, 21, 10)
	cfg := PlatformConfig{Seed: 4, URLsPerDay: 6, RepeatsPerDay: 2, Workers: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shards, err := RunByDayCtx(context.Background(), s, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	records := len(MergeShards(shards))
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
	t.Logf("%d records, %.0f heap bytes a record (budget %d)", records, perRecord, budget)
	if perRecord > budget {
		t.Errorf("measurement allocated %.0f heap bytes a record, over the budget of %d", perRecord, budget)
	}
}
