package churntomo

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// matrixConfig is a deliberately tiny pipeline so a whole matrix stays
// test-budget fast.
func matrixConfig() Config {
	cfg := SmallConfig()
	cfg.Days = 8
	cfg.Vantages = 8
	cfg.URLs = 10
	cfg.URLsPerDay = 4
	return cfg
}

func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	base := matrixConfig()
	base.Seed = 40
	res := runDirect(t, WithConfig(base), WithSeedSweep(4))
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	for i, cell := range res.Cells {
		cfg := cell.Config
		if cfg.Seed != 40+uint64(i) {
			t.Errorf("cell %d seed %d", i, cfg.Seed)
		}
		if cfg.Vantages != base.Vantages || cfg.Days != base.Days {
			t.Errorf("cell %d lost base dimensions", i)
		}
	}
}

func TestScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	base := matrixConfig()
	cells := runDirect(t, WithConfig(base), WithScaleSweep(0.5, 1, 2)).Cells
	if len(cells) != 3 {
		t.Fatalf("got %d cells", len(cells))
	}
	if cells[0].Config.Vantages != base.Vantages/2 || cells[2].Config.Vantages != base.Vantages*2 {
		t.Errorf("vantage scaling wrong: %d, %d", cells[0].Config.Vantages, cells[2].Config.Vantages)
	}
	if cells[1].Config.URLs != base.URLs || cells[1].Config.Days != base.Days {
		t.Errorf("unit factor changed dimensions")
	}
	tiny := runDirect(t, WithConfig(base), WithScaleSweep(0.0001)).Cells[0].Config
	if tiny.Vantages < 2 || tiny.URLs < 2 || tiny.Days < 1 {
		t.Errorf("scale floor not applied: %+v", tiny)
	}
	for _, cell := range cells {
		if cell.Config.Seed != base.Seed {
			t.Errorf("scale sweep changed the seed")
		}
	}
}

func TestRunMatrixAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	var progress bytes.Buffer
	exp, err := New(WithConfig(matrixConfig()), WithSeedSweep(3),
		WithMatrixWorkers(3), WithObserver(TextObserver(&progress)))
	if err != nil {
		t.Fatal(err)
	}
	statuses, cells := exp.runMatrixCells(context.Background(), exp.matrixConfigs())
	if len(statuses) != 3 || len(cells) != 3 {
		t.Fatalf("got %d statuses, %d cells", len(statuses), len(cells))
	}
	for i, cs := range statuses {
		if cs.Index != i {
			t.Errorf("cell %d has index %d", i, cs.Index)
		}
		if cs.Err != nil {
			t.Fatalf("cell %d failed: %v", i, cs.Err)
		}
		if c := cells[i]; c == nil || len(c.outcomes) == 0 || cs.CNFs != len(c.outcomes) {
			t.Fatalf("cell %d produced no outcomes, or its status miscounts them", i)
		}
	}
	if got := strings.Count(progress.String(), "matrix cell"); got != 3 {
		t.Errorf("progress reported %d cells, want 3:\n%s", got, progress.String())
	}

	ms := matrixSummaryOf(cells)
	if ms.Runs != 3 || ms.Failed != 0 {
		t.Fatalf("aggregate runs=%d failed=%d", ms.Runs, ms.Failed)
	}
	wantCNFs := 0
	for _, cs := range statuses {
		wantCNFs += cs.CNFs
	}
	if ms.TotalCNFs != wantCNFs {
		t.Errorf("TotalCNFs %d, want %d", ms.TotalCNFs, wantCNFs)
	}
	if ms.UniqueCNFs == 0 || ms.UniqueCNFs > ms.TotalCNFs {
		t.Errorf("UniqueCNFs %d implausible (total %d)", ms.UniqueCNFs, ms.TotalCNFs)
	}
	perRun := map[ASN]int{}
	for _, c := range cells {
		for asn := range c.identified {
			perRun[asn]++
		}
	}
	runs := censusRuns(ms)
	if !reflect.DeepEqual(runs, perRun) {
		t.Errorf("aggregated censor runs %v disagree with per-cell union %v", runs, perRun)
	}
	if len(runs) != len(ms.Censors) {
		t.Fatalf("%d ranked censors for %d distinct ASes", len(ms.Censors), len(runs))
	}
	// Ranked most-corroborated first: runs desc, CNFs desc, ASN asc.
	for i := 1; i < len(ms.Censors); i++ {
		a, b := ms.Censors[i-1], ms.Censors[i]
		if a.Runs < b.Runs || (a.Runs == b.Runs && (a.CNFs < b.CNFs || (a.CNFs == b.CNFs && a.ASN > b.ASN))) {
			t.Errorf("ranking out of order at %d: %+v before %+v", i, a, b)
		}
	}
	var wantStable []ASN
	for asn, n := range runs {
		if n == ms.Runs {
			wantStable = append(wantStable, asn)
		}
	}
	sort.Slice(wantStable, func(i, j int) bool { return wantStable[i] < wantStable[j] })
	if !reflect.DeepEqual(ms.Stable, wantStable) {
		t.Errorf("stable %v, want the ascending censors of every run %v", ms.Stable, wantStable)
	}
}

func censusRuns(ms *MatrixSummary) map[ASN]int {
	out := map[ASN]int{}
	for _, c := range ms.Censors {
		out[c.ASN] = c.Runs
	}
	return out
}

func TestRunMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of pipelines in -short mode")
	}
	run := func(workers int) *MatrixSummary {
		return runDirect(t, WithConfig(matrixConfig()), WithSeedSweep(2), WithMatrixWorkers(workers)).Matrix
	}
	a, b := run(2), run(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("matrix summary differs across worker counts:\n%+v\n%+v", a, b)
	}
}
