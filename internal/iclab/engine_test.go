package iclab

import (
	"reflect"
	"testing"
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

func TestMergeShardsOrder(t *testing.T) {
	shards := [][]Record{
		{{URL: "day0-a"}, {URL: "day0-b"}},
		nil, // an empty day must not disturb the sequence
		{{URL: "day2-a"}},
	}
	merged := MergeShards(shards)
	wantURLs := []string{"day0-a", "day0-b", "day2-a"}
	if len(merged) != len(wantURLs) {
		t.Fatalf("merged %d records, want %d", len(merged), len(wantURLs))
	}
	for i, want := range wantURLs {
		if merged[i].URL != want {
			t.Errorf("record %d is %q, want %q", i, merged[i].URL, want)
		}
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

func TestScenarioDays(t *testing.T) {
	s := buildStack(t, 12, 9)
	if got := s.Days(); got != 9 {
		t.Fatalf("Days() = %d, want 9", got)
	}
}
