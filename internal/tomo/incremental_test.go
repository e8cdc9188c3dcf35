package tomo

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/iclab"
	"churntomo/internal/topology"
)

// solveInc runs inc.BuildAndSolveCtx on a background context, where it
// never fails.
func solveInc(t *testing.T, inc *Incremental) ([]*Instance, []Outcome, IncStats) {
	t.Helper()
	insts, outs, stats, err := inc.BuildAndSolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return insts, outs, stats
}

// synthDays is the table synthDay serves its days from, numbered as one
// (iclab.NumberPaths), so days may be folded together in any mix.
var synthDays = sync.OnceValue(func() [][]iclab.Record {
	days := make([][]iclab.Record, 40)
	for d := range days {
		days[d] = fabricateDay(d)
	}
	iclab.NumberPaths(days...)
	return days
})

// synthDay returns day's records, 0 <= day < 40, of one numbered table;
// they must not be written.
func synthDay(day int) []iclab.Record {
	return slices.Clip(synthDays()[day])
}

// fabricateDay fabricates one day's records: a few vantages testing a few
// URLs over paths that churn with the day index, with anomalies on some
// paths.
func fabricateDay(day int) []iclab.Record {
	at := time.Date(2016, 5, 25, 9, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	var recs []iclab.Record
	urls := []string{"a.com", "b.com", "c.com"}
	for u, url := range urls {
		for v := 0; v < 3; v++ {
			// Paths share a censoring AS 50 and churn a mid-path hop by day.
			mid := topology.ASN(100 + (day+v)%4)
			path := []topology.ASN{topology.ASN(10 + v), mid, 50, topology.ASN(200 + u)}
			var kinds anomaly.Set
			if (day+u+v)%3 == 0 {
				kinds = anomaly.MakeSet(anomaly.DNS)
			}
			if (day+u)%5 == 0 {
				kinds = kinds.Add(anomaly.RST)
			}
			recs = append(recs, rec(topology.ASN(10+v), url, at.Add(time.Duration(v)*time.Hour), path, kinds))
			// A clean sibling path that avoids AS 50.
			clean := []topology.ASN{topology.ASN(10 + v), mid, 60, topology.ASN(200 + u)}
			recs = append(recs, rec(topology.ASN(10+v), url, at.Add(time.Duration(v+8)*time.Hour), clean, 0))
		}
	}
	return recs
}

// TestIncrementalMatchesBatch slides a 4-day window over 13 synthetic days
// (crossing a week and a month boundary) and checks at every position that
// the incremental engine's instances and outcomes are identical, field for
// field and in order, to a from-scratch batch BuildAndSolve over the same
// in-window records. Each window's Solved/Reused split is pinned too: the
// values were recorded from the string-keyed engine cells replaced, whose
// dirty set was per (URL, slice, kind) key.
func TestIncrementalMatchesBatch(t *testing.T) {
	const days, window = 13, 4
	wantStats := [days]IncStats{
		{16, 0}, {15, 4}, {15, 7}, {19, 10}, {19, 10}, {25, 11}, {24, 12},
		{24, 11}, {22, 10}, {22, 10}, {22, 11}, {21, 12}, {21, 11},
	}
	cfg := BuildConfig{Workers: 1}
	inc := NewIncremental(cfg)
	var inWindow [][]iclab.Record

	for day := 0; day < days; day++ {
		recs := synthDay(day)
		inc.AddDay(day, recs)
		inWindow = append(inWindow, recs)
		if day >= window {
			inc.RemoveDay(day - window)
			inWindow = inWindow[1:]
		}

		gotInsts, gotOuts, stats := solveInc(t, inc)
		var flat []iclab.Record
		for _, d := range inWindow {
			flat = append(flat, d...)
		}
		wantInsts, wantOuts := BuildAndSolve(flat, cfg)

		if len(gotInsts) != len(wantInsts) {
			t.Fatalf("day %d: %d instances, batch has %d", day, len(gotInsts), len(wantInsts))
		}
		for i := range wantInsts {
			if !reflect.DeepEqual(gotInsts[i], wantInsts[i]) {
				t.Fatalf("day %d: instance %d (%v) differs from batch:\n got %+v\nwant %+v",
					day, i, wantInsts[i].Key, gotInsts[i], wantInsts[i])
			}
		}
		for i := range wantOuts {
			if !reflect.DeepEqual(gotOuts[i], wantOuts[i]) {
				t.Fatalf("day %d: outcome %d (%v) differs from batch:\n got %+v\nwant %+v",
					day, i, wantOuts[i].Inst.Key, gotOuts[i], wantOuts[i])
			}
		}
		if stats != wantStats[day] {
			t.Errorf("day %d: stats %+v, want %+v", day, stats, wantStats[day])
		}
	}
}

// TestIncrementalNoChangeReusesEverything pins that a BuildAndSolve with no
// intervening Add/Remove re-solves nothing.
func TestIncrementalNoChangeReusesEverything(t *testing.T) {
	inc := NewIncremental(BuildConfig{Workers: 1})
	inc.AddDay(0, synthDay(0))
	inc.AddDay(1, synthDay(1))
	_, outs1, stats1 := solveInc(t, inc)
	if stats1.Solved == 0 || stats1.Reused != 0 {
		t.Fatalf("first solve: %+v", stats1)
	}
	_, outs2, stats2 := solveInc(t, inc)
	if stats2.Solved != 0 || stats2.Reused != len(outs2) {
		t.Fatalf("idle solve did work: %+v", stats2)
	}
	if !reflect.DeepEqual(outs1, outs2) {
		t.Fatal("idle solve changed outcomes")
	}
}

// TestIncrementalRemoveAllEmpties verifies full retraction returns the
// engine to the empty state.
func TestIncrementalRemoveAllEmpties(t *testing.T) {
	inc := NewIncremental(BuildConfig{Workers: 1})
	inc.AddDay(0, synthDay(0))
	inc.AddDay(1, synthDay(1))
	inc.RemoveDay(0)
	inc.RemoveDay(1)
	insts, outs, _ := solveInc(t, inc)
	if len(insts) != 0 || len(outs) != 0 {
		t.Fatalf("retracted engine still holds %d instances", len(insts))
	}
	// Re-adding after removal must work (fresh groups, fresh labels).
	inc.AddDay(1, synthDay(1))
	insts, _, _ = solveInc(t, inc)
	want, _ := BuildAndSolve(synthDay(1), BuildConfig{Workers: 1})
	if len(insts) != len(want) {
		t.Fatalf("re-added day: %d instances, want %d", len(insts), len(want))
	}
}

// TestIncrementalLongReplayMatchesBatch slides a narrow window far enough
// that coarse-granularity keys see many more days retracted than they hold
// resident, and demands batch-identical outcomes throughout.
func TestIncrementalLongReplayMatchesBatch(t *testing.T) {
	const days, window = 40, 3
	cfg := BuildConfig{Workers: 1}
	inc := NewIncremental(cfg)
	var inWindow [][]iclab.Record
	for day := 0; day < days; day++ {
		recs := synthDay(day)
		inc.AddDay(day, recs)
		inWindow = append(inWindow, recs)
		if day >= window {
			inc.RemoveDay(day - window)
			inWindow = inWindow[1:]
		}
		var flat []iclab.Record
		for _, d := range inWindow {
			flat = append(flat, d...)
		}
		_, wantOuts := BuildAndSolve(flat, cfg)
		_, gotOuts, _ := solveInc(t, inc)
		if !reflect.DeepEqual(gotOuts, wantOuts) {
			t.Fatalf("day %d: outcomes differ from batch", day)
		}
	}
}

// TestIncrementalDuplicateDayPanics pins the double-add guard.
func TestIncrementalDuplicateDayPanics(t *testing.T) {
	inc := NewIncremental(BuildConfig{Workers: 1})
	inc.AddDay(3, synthDay(3))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddDay label did not panic")
		}
	}()
	inc.AddDay(3, synthDay(3))
}

// TestIncrementalWorkersIrrelevant runs the same replay at several worker
// counts and demands identical output — the determinism guarantee PR 1
// established for the batch engine, extended to the incremental one.
func TestIncrementalWorkersIrrelevant(t *testing.T) {
	replay := func(workers int) string {
		inc := NewIncremental(BuildConfig{Workers: workers})
		var out string
		for day := 0; day < 8; day++ {
			inc.AddDay(day, synthDay(day))
			if day >= 3 {
				inc.RemoveDay(day - 3)
			}
			_, outs, _ := solveInc(t, inc)
			for _, o := range outs {
				out += fmt.Sprintf("%v/%v/%v/%d;", o.Inst.Key, o.Class, o.Censors, o.Eliminated)
			}
			out += "\n"
		}
		return out
	}
	serial := replay(1)
	for _, w := range []int{0, 4} {
		if got := replay(w); got != serial {
			t.Fatalf("workers=%d replay differs from serial", w)
		}
	}
}

// FuzzIncrementalVsBatch drives Incremental through a fuzzed sequence of
// AddDay, RemoveDay and re-adds over a small record pool: eight day labels
// (crossing a week and a month boundary), each holding a fuzz-chosen subset
// of synthDay's records. After every step the incremental instances and
// outcomes must equal, field for field, a fresh batch BuildAndSolve over the
// resident days, and Solved + Reused must account for every outcome.
//
// Each op is two bytes: a label (low three bits) and, when adding, a mask
// selecting the day's records. An op on a resident label, or with the high
// bit set, removes the label instead (a no-op when it is not resident).
// The checked-in corpus under testdata/fuzz/FuzzIncrementalVsBatch slides
// a window with re-adds, re-adds across the month boundary with other
// record subsets, removes unknown labels, and fills then drains the pool.
func FuzzIncrementalVsBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const labels, maxSteps = 8, 24
		cfg := BuildConfig{Workers: 1}
		inc := NewIncremental(cfg)
		resident := map[int][]iclab.Record{}
		for i := 0; i+1 < len(ops) && i < 2*maxSteps; i += 2 {
			label := int(ops[i] % labels)
			if _, ok := resident[label]; ok || ops[i]&0x80 != 0 {
				inc.RemoveDay(label)
				delete(resident, label)
			} else {
				var recs []iclab.Record
				for j, r := range synthDay(label) {
					if ops[i+1]&(1<<(j%8)) != 0 {
						recs = append(recs, r)
					}
				}
				inc.AddDay(label, recs)
				resident[label] = recs
			}

			var flat []iclab.Record
			for d := 0; d < labels; d++ {
				flat = append(flat, resident[d]...)
			}
			wantInsts, wantOuts := BuildAndSolve(flat, cfg)
			gotInsts, gotOuts, stats := solveInc(t, inc)
			if !reflect.DeepEqual(gotInsts, wantInsts) || !reflect.DeepEqual(gotOuts, wantOuts) {
				t.Fatalf("step %d (op %#x): incremental differs from batch over %d resident days",
					i/2, ops[i], len(resident))
			}
			if stats.Solved+stats.Reused != len(gotOuts) {
				t.Fatalf("step %d: solved %d + reused %d != %d outcomes",
					i/2, stats.Solved, stats.Reused, len(gotOuts))
			}
		}
	})
}
