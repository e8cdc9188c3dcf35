package routing

// Tests for PolicyWave bursts and the plane-aware oracle — the two
// routing-layer features behind the routing-shift and ecmp-multipath
// presets.

import (
	"testing"
	"time"

	"churntomo/internal/topology"
)

// topologyGenerateDense builds a densely peered graph: dense peering
// maximizes route ties, which is what gives higher planes room to
// diverge.
func topologyGenerateDense(seed uint64, ases int) (*topology.Graph, error) {
	return topology.Generate(topology.GenConfig{Seed: seed, ASes: ases, PeerProb: 0.5})
}

func TestPolicyWaveValidation(t *testing.T) {
	g := graph(t, 21, 120)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 1, 0)
	bad := []PolicyWave{
		{At: -0.1, Frac: 0.5},
		{At: 1.0, Frac: 0.5}, // At must be < 1
		{At: 0.5, Frac: 0},   // Frac must be > 0
		{At: 0.5, Frac: 1.1},
	}
	for _, w := range bad {
		_, err := GenTimeline(g, TimelineConfig{Seed: 1, Start: start, End: end, Waves: []PolicyWave{w}})
		if err == nil {
			t.Errorf("wave %+v accepted, want validation error", w)
		}
	}
	if _, err := GenTimeline(g, TimelineConfig{Seed: 1, Start: start, End: end,
		Waves: []PolicyWave{{At: 0, Frac: 1}}}); err != nil {
		t.Errorf("boundary wave {0, 1} rejected: %v", err)
	}
}

// TestPolicyWaveBackgroundUnchanged pins the dedicated-RNG-stream rule:
// adding waves must not perturb the background churn, so before the
// first wave fires every path is identical to the wave-free timeline.
func TestPolicyWaveBackgroundUnchanged(t *testing.T) {
	g := graph(t, 22, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 1, 0)
	plain, err := GenTimeline(g, TimelineConfig{Seed: 3, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	waved, err := GenTimeline(g, TimelineConfig{Seed: 3, Start: start, End: end,
		Waves: []PolicyWave{{At: 0.5, Frac: 0.6}}})
	if err != nil {
		t.Fatal(err)
	}
	op := NewOracle(g, plain, 512).View()
	ow := NewOracle(g, waved, 512).View()
	waveAt := start.Add(time.Duration(0.5 * float64(end.Sub(start))))
	probe := func(at time.Time) (same, diff int) {
		for src := int32(0); src < 60; src += 3 {
			for dst := int32(60); dst < 90; dst += 5 {
				a, oka := pathIdxAt(op, src, dst, at)
				b, okb := pathIdxAt(ow, src, dst, at)
				if oka != okb {
					t.Fatalf("reachability differs at %v for %d->%d", at, src, dst)
				}
				if pathEq(a, b) {
					same++
				} else {
					diff++
				}
			}
		}
		return
	}
	if _, diff := probe(waveAt.Add(-time.Hour)); diff != 0 {
		t.Errorf("%d paths differ before the wave; background churn perturbed", diff)
	}
	if _, diff := probe(waveAt.Add(time.Hour)); diff == 0 {
		t.Error("no path changed after a 60%% wave; wave inert")
	}
}

// TestPolicyWaveSaltsChangeAtWaveEpoch pins the simultaneous-shift fix:
// a wave drops many PolicyShift events at one instant, and their salts
// must take effect in the epoch starting at the wave time — not one
// boundary later.
func TestPolicyWaveSaltsChangeAtWaveEpoch(t *testing.T) {
	g := graph(t, 23, 120)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 1, 0)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 4, Start: start, End: end,
		Waves: []PolicyWave{{At: 0.5, Frac: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	waveAt := start.Add(time.Duration(0.5 * float64(end.Sub(start))))
	ep := tl.EpochAt(waveAt)
	if !tl.epochs[ep].at.Equal(waveAt) {
		t.Fatalf("no epoch starts at the wave instant; epoch %d starts %v, wave at %v",
			ep, tl.epochs[ep].at, waveAt)
	}
	before := make([]uint64, len(g.ASes))
	at := make([]uint64, len(g.ASes))
	tl.EpochSalts(ep-1, before)
	tl.EpochSalts(ep, at)
	changed := 0
	for i := range before {
		if before[i] != at[i] {
			changed++
		}
	}
	// Frac 0.5 re-rolls ~half the ASes; background shifts cannot account
	// for more than a handful in one epoch step.
	if changed < len(g.ASes)/4 {
		t.Fatalf("only %d/%d salts changed at the wave epoch; wave salts deferred to a later epoch",
			changed, len(g.ASes))
	}
}

func pathEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOraclePlaneZeroCanonical pins that the plane-aware API is a
// byte-identical no-op on plane 0: AppendPath(…, 0) agrees with the
// path on Oracle.TreeAt's plane-unaware tree, and TreeAtPlane(…, 0) with
// the tree itself.
func TestOraclePlaneZeroCanonical(t *testing.T) {
	g := graph(t, 24, 150)
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 5, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 512)
	v := o.View()
	at := start.Add(72 * time.Hour)
	for src := int32(0); src < 40; src += 3 {
		for dst := int32(40); dst < 70; dst += 7 {
			a, oka := o.TreeAt(dst, tl.EpochAt(at)).AppendPath(nil, src, dst)
			b, okb := v.AppendPath(nil, src, dst, at, 0)
			if oka != okb || !pathEq(a, b) {
				t.Fatalf("plane 0 differs from canonical for %d->%d", src, dst)
			}
		}
	}
	for dst := int32(40); dst < 70; dst += 7 {
		if !pathEq(v.TreeAtPlane(dst, tl.EpochAt(at), 0), o.TreeAt(dst, tl.EpochAt(at))) {
			t.Fatalf("TreeAtPlane(%d, …, 0) differs from TreeAt", dst)
		}
	}
}

// TestOraclePlanesDivergeAndStayValid: higher planes must produce some
// different paths (the whole point) while staying valley-free and fully
// reachable — they are alternative valid Gao–Rexford trees, not noise.
func TestOraclePlanesDivergeAndStayValid(t *testing.T) {
	g, err := topologyGenerateDense(25, 200)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	tl, err := GenTimeline(g, TimelineConfig{Seed: 6, Start: start, End: start.AddDate(0, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(g, tl, 512).View()
	at := start.Add(24 * time.Hour)
	diff := 0
	for src := int32(0); src < 60; src += 2 {
		for dst := int32(60); dst < 100; dst += 4 {
			base, ok0 := o.AppendPath(nil, src, dst, at, 0)
			for plane := int32(1); plane <= 2; plane++ {
				p, ok := o.AppendPath(nil, src, dst, at, plane)
				if ok != ok0 {
					t.Fatalf("plane %d changes reachability for %d->%d", plane, src, dst)
				}
				if !ok {
					continue
				}
				if !valleyFree(g, p) {
					t.Fatalf("plane %d path %v violates valley-freeness", plane, p)
				}
				if !pathEq(base, p) {
					diff++
				}
				// Planes are deterministic: querying again is identical.
				again, _ := o.AppendPath(nil, src, dst, at, plane)
				if !pathEq(p, again) {
					t.Fatalf("plane %d path not deterministic for %d->%d", plane, src, dst)
				}
			}
		}
	}
	if diff == 0 {
		t.Error("no path differed across planes over a densely peered graph; planes inert")
	}
}
