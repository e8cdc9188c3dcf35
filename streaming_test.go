package churntomo

import (
	"context"
	"reflect"
	"testing"
)

// replayCell runs one streaming cell through the shared cell runner and
// returns its raw artifacts: every window's outcomes, which Result does
// not carry.
func replayCell(t *testing.T, opts ...Option) *cell {
	t.Helper()
	exp, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := exp.runCell(context.Background(), exp.base, -1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamReplayMatchesBatch is the streaming determinism regression: a
// cumulative day-by-day replay must end in exactly the batch pipeline's
// state — identical records, outcomes and identified censors — even though
// the replay solved incrementally across dozens of intermediate windows.
func TestStreamReplayMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	batch := runDirect(t, WithConfig(cfg)).cell

	sr := replayCell(t, WithConfig(cfg), WithWindow(0), WithStride(1))
	if len(sr.windows) != cfg.Days {
		t.Fatalf("cumulative stride-1 replay emitted %d windows over %d days", len(sr.windows), cfg.Days)
	}
	final := sr.final()
	if final.StartDay != 0 || final.EndDay != cfg.Days-1 {
		t.Fatalf("final window covers [%d..%d], want [0..%d]", final.StartDay, final.EndDay, cfg.Days-1)
	}

	// The measured dataset is bit-identical to the batch engine's.
	if !reflect.DeepEqual(sr.dataset.Records, batch.dataset.Records) {
		t.Fatal("streaming replay measured different records than the batch engine")
	}

	// The final window's tomography equals the batch Localize, field for
	// field (instances compared through their keys and solved artifacts;
	// clause literal order is a solver-internal artifact).
	if len(final.Outcomes) != len(batch.outcomes) {
		t.Fatalf("final window has %d outcomes, batch has %d", len(final.Outcomes), len(batch.outcomes))
	}
	for i := range batch.outcomes {
		g, b := final.Outcomes[i], batch.outcomes[i]
		if g.Inst.Key != b.Inst.Key || g.Class != b.Class ||
			!reflect.DeepEqual(g.Censors, b.Censors) ||
			!reflect.DeepEqual(g.Potential, b.Potential) ||
			g.Eliminated != b.Eliminated || g.TotalVars != b.TotalVars ||
			g.Inst.Measurements != b.Inst.Measurements ||
			!reflect.DeepEqual(g.Inst.Vars, b.Inst.Vars) {
			t.Fatalf("outcome %d (%v) differs between streaming and batch:\n got %+v\nwant %+v",
				i, b.Inst.Key, g, b)
		}
	}
	if !reflect.DeepEqual(final.Identified, batch.identified) {
		t.Fatalf("identified censors differ:\nstreaming %v\nbatch %v", final.Identified, batch.identified)
	}

	// Incrementality did real work avoidance: across the whole replay most
	// window solves must come from cache, not re-solving.
	solved, reused := 0, 0
	for _, w := range sr.windows {
		solved += w.Solved
		reused += w.Reused
	}
	if reused <= solved {
		t.Errorf("cumulative replay reused %d outcomes vs %d solves; incrementality inert", reused, solved)
	}
}

// TestStreamSweepWorkersIrrelevant extends the serial==parallel guarantee to
// the streaming mode: the full window timeline is identical at any worker
// count.
func TestStreamSweepWorkersIrrelevant(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	replay := func(workers int) *cell {
		cfg := testConfig()
		cfg.Workers = workers
		return replayCell(t, WithConfig(cfg), WithWindow(10), WithStride(5))
	}
	serial := replay(1)
	par := replay(8)
	if len(serial.windows) != len(par.windows) {
		t.Fatalf("window counts differ: %d vs %d", len(serial.windows), len(par.windows))
	}
	for i := range serial.windows {
		s, p := serial.windows[i], par.windows[i]
		if s.StartDay != p.StartDay || s.EndDay != p.EndDay || s.Solved != p.Solved || s.Reused != p.Reused {
			t.Fatalf("window %d shape differs: %+v vs %+v", i, s, p)
		}
		if !reflect.DeepEqual(s.Identified, p.Identified) {
			t.Fatalf("window %d identifications differ between serial and parallel", i)
		}
		for j := range s.Outcomes {
			if s.Outcomes[j].Class != p.Outcomes[j].Class ||
				s.Outcomes[j].Inst.Key != p.Outcomes[j].Inst.Key ||
				!reflect.DeepEqual(s.Outcomes[j].Censors, p.Outcomes[j].Censors) {
				t.Fatalf("window %d outcome %d differs between serial and parallel", i, j)
			}
		}
	}
	if !reflect.DeepEqual(serial.conv, par.conv) {
		t.Fatal("convergence stats differ between serial and parallel")
	}
}

// TestStreamSweepSlidingWindowTimeline sanity-checks a sliding replay's
// shape and its convergence stats against the per-window identifications.
func TestStreamSweepSlidingWindowTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	sr := runDirect(t, WithConfig(cfg), WithWindow(12), WithStride(3))
	wantWindows := (cfg.Days-12)/3 + 1
	if len(sr.Windows) != wantWindows {
		t.Fatalf("emitted %d windows, want %d", len(sr.Windows), wantWindows)
	}
	for i, w := range sr.Windows {
		if w.Index != i || w.EndDay-w.StartDay != 11 {
			t.Fatalf("window %d malformed: %+v", i, w)
		}
	}
	seen := map[string]bool{}
	for _, c := range sr.Convergence {
		if c.Windows < 1 || c.FirstWindow > c.LastWindow {
			t.Errorf("degenerate convergence record %+v", c)
		}
		if _, ok := sr.Windows[c.FirstWindow].Identified[c.ASN]; !ok {
			t.Errorf("censor %v not identified in its FirstWindow %d", c.ASN, c.FirstWindow)
		}
		if c.StableFrom >= 0 {
			for wi := c.StableFrom; wi < len(sr.Windows); wi++ {
				if _, ok := sr.Windows[wi].Identified[c.ASN]; !ok {
					t.Errorf("censor %v marked stable from %d but absent in window %d", c.ASN, c.StableFrom, wi)
				}
			}
		}
		seen[c.ASN.String()] = true
	}
	for _, w := range sr.Windows {
		for asn := range w.Identified {
			if !seen[asn.String()] {
				t.Errorf("censor %v identified in window %d missing from convergence", asn, w.Index)
			}
		}
	}
}
