package tomo

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"churntomo/internal/iclab"
	"churntomo/internal/timeslice"
)

// localizeAlloc returns the heap bytes f allocates and the CNF count f
// returns.
func localizeAlloc(f func() int) (uint64, int) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, n
}

// TestLocalizeAllocationBudget bounds the heap that localization allocates
// per CNF over syntheticRecords: a batch BuildAndSolve, and a replay of
// its days through a 4-day sliding Incremental window, counted per CNF
// the windows re-solve. Neither writes clauses out, so a CNF costs its
// Instance, the lists Solve reads and its Outcome, beside the fold. The
// test must not run in parallel with others: TotalAlloc counts every
// goroutine's allocations.
func TestLocalizeAllocationBudget(t *testing.T) {
	// About 1.25 times what this fixture measured when the budgets were
	// set under the race detector: 571 heap bytes a CNF in batch and 646
	// in the window (514 and 603 without it). A build that wrote every
	// CNF out as clauses took 1,919 and 2,006.
	const batchBudget, windowBudget = 700, 800
	records := syntheticRecords(6000)

	bytes, cnfs := localizeAlloc(func() int {
		insts, _ := BuildAndSolve(records, BuildConfig{Workers: 1})
		return len(insts)
	})
	perCNF := float64(bytes) / float64(cnfs)
	t.Logf("batch: %d CNFs, %.0f heap bytes a CNF (budget %d)", cnfs, perCNF, batchBudget)
	if perCNF > batchBudget {
		t.Errorf("BuildAndSolve allocated %.0f heap bytes a CNF, over the budget of %d", perCNF, batchBudget)
	}

	byDay := map[int32][]iclab.Record{}
	for _, r := range records {
		d := timeslice.KeyFor(timeslice.Day, r.At).Index
		byDay[d] = append(byDay[d], r)
	}
	var days []int32
	for d := range byDay {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	const window = 4
	bytes, cnfs = localizeAlloc(func() int {
		inc := NewIncremental(BuildConfig{Workers: 1})
		solved := 0
		for i, d := range days {
			inc.AddDay(i, byDay[d])
			if i >= window {
				inc.RemoveDay(i - window)
			}
			_, _, stats, err := inc.BuildAndSolveCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			solved += stats.Solved
		}
		return solved
	})
	perCNF = float64(bytes) / float64(cnfs)
	t.Logf("%d-day window over %d days: %d CNFs re-solved, %.0f heap bytes a CNF (budget %d)",
		window, len(days), cnfs, perCNF, windowBudget)
	if perCNF > windowBudget {
		t.Errorf("the windowed replay allocated %.0f heap bytes a re-solved CNF, over the budget of %d", perCNF, windowBudget)
	}
}
