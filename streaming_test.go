package churntomo

import (
	"context"
	"reflect"
	"testing"

	"churntomo/internal/stream"
	"churntomo/internal/tomo"
)

// replayCell runs one streaming cell through the shared cell runner and
// returns its raw artifacts: every window, of which the final one keeps
// its outcomes, which Result does not carry.
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

// engineWindows measures cfg's world and replays its day shards through a
// stream engine configured as a streaming Experiment configures it,
// keeping every window whole.
func engineWindows(t *testing.T, cfg Config, window, stride int) []*stream.Window {
	t.Helper()
	ctx := context.Background()
	c, shards, err := (&ScenarioSource{}).openCell(ctx, cfg, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine(stream.Config{
		Window: window, Stride: stride, MinCNFs: identifyMinCNFs,
		Build: tomo.BuildConfig{Workers: c.cfg.Workers},
	})
	var windows []*stream.Window
	for _, day := range shards {
		w, err := eng.PushCtx(ctx, day)
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			windows = append(windows, w)
		}
	}
	w, err := eng.FlushCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		windows = append(windows, w)
	}
	return windows
}

// TestStreamReplayKeepsOnlyTheLastWindow: a streaming cell converts each
// window to its WindowResult as it arrives and keeps the instances and
// outcomes of the last window only, since nothing reads an earlier one's.
// Result.Windows and Convergence must be what a replay keeping every
// window whole derives.
func TestStreamReplayKeepsOnlyTheLastWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	cfg := testConfig()
	exp, err := New(WithConfig(cfg), WithWindow(10), WithStride(3))
	if err != nil {
		t.Fatal(err)
	}
	c, err := exp.runCell(context.Background(), exp.base, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.windows) < 2 {
		t.Fatalf("replay emitted %d windows; test vacuous", len(c.windows))
	}
	for i, w := range c.windows {
		if last := i == len(c.windows)-1; !last && (w.Instances != nil || w.Outcomes != nil) {
			t.Errorf("window %d of %d still holds %d instances and %d outcomes", i, len(c.windows), len(w.Instances), len(w.Outcomes))
		} else if last && len(w.Outcomes) == 0 {
			t.Error("the final window lost its outcomes")
		}
	}

	all := engineWindows(t, exp.base, 10, 3)
	var want []WindowResult
	for _, w := range all {
		want = append(want, windowResultOf(w))
	}
	res := exp.singleResult(c)
	if !reflect.DeepEqual(res.Windows, want) {
		t.Errorf("Result.Windows differs from a replay keeping every window:\n got %+v\nwant %+v", res.Windows, want)
	}
	if wantConv := convergencesOf(stream.Converge(all)); !reflect.DeepEqual(res.Convergence, wantConv) {
		t.Errorf("Convergence differs from a replay keeping every window:\n got %+v\nwant %+v", res.Convergence, wantConv)
	}
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
// count. A streaming cell keeps only its final window's outcomes, so every
// window's outcomes are compared on engine replays of the same shards.
func TestStreamSweepWorkersIrrelevant(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	configured := func(workers int) Config {
		cfg := testConfig()
		cfg.Workers = workers
		return cfg
	}
	serial := replayCell(t, WithConfig(configured(1)), WithWindow(10), WithStride(5))
	for _, workers := range []int{2, 8} {
		par := replayCell(t, WithConfig(configured(workers)), WithWindow(10), WithStride(5))
		if !reflect.DeepEqual(serial.windowResults, par.windowResults) {
			t.Fatalf("workers=%d: window timeline differs from serial:\n%+v\n%+v", workers, serial.windowResults, par.windowResults)
		}
		if !reflect.DeepEqual(serial.churn, par.churn) || !reflect.DeepEqual(serial.churnByClass, par.churnByClass) {
			t.Fatalf("workers=%d: churn summary differs from serial", workers)
		}
		if !reflect.DeepEqual(serial.conv, par.conv) {
			t.Fatalf("workers=%d: convergence stats differ from serial", workers)
		}
	}

	s, p := engineWindows(t, configured(1), 10, 5), engineWindows(t, configured(8), 10, 5)
	if len(s) != len(p) {
		t.Fatalf("window counts differ: %d vs %d", len(s), len(p))
	}
	for i := range s {
		if len(s[i].Outcomes) != len(p[i].Outcomes) {
			t.Fatalf("window %d: %d outcomes serially, %d in parallel", i, len(s[i].Outcomes), len(p[i].Outcomes))
		}
		for j := range s[i].Outcomes {
			so, po := &s[i].Outcomes[j], &p[i].Outcomes[j]
			if so.Class != po.Class || so.Inst.Key != po.Inst.Key || !reflect.DeepEqual(so.Censors, po.Censors) {
				t.Fatalf("window %d outcome %d differs between serial and parallel", i, j)
			}
		}
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
