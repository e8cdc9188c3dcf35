package ipasmap

import (
	"testing"
	"time"

	"churntomo/internal/topology"
)

var (
	start = time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	end   = start.AddDate(1, 0, 0)
)

func genGraph(t testing.TB) *topology.Graph {
	t.Helper()
	g, err := topology.Generate(topology.GenConfig{Seed: 1, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildMonthlySnapshots(t *testing.T) {
	g := genGraph(t)
	db, err := Build(g, BuildConfig{Seed: 1, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.snapshots) != 12 {
		t.Errorf("got %d snapshots over a year, want 12", len(db.snapshots))
	}
	for i := 1; i < len(db.snapshots); i++ {
		if !db.snapshots[i].start.After(db.snapshots[i-1].start) {
			t.Errorf("snapshots out of order at %d", i)
		}
	}
}

func TestLookupMostlyCorrect(t *testing.T) {
	g := genGraph(t)
	db, err := Build(g, BuildConfig{Seed: 2, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	total, correct, missing := 0, 0, 0
	for i := range g.ASes {
		want := g.ASes[i].ASN
		ip := g.RouterIP(int32(i), 0)
		for m := 0; m < 12; m++ {
			at := start.AddDate(0, m, 3)
			total++
			got, ok := db.Lookup(ip, at)
			switch {
			case !ok:
				missing++
			case got == want:
				correct++
			}
		}
	}
	if frac := float64(correct) / float64(total); frac < 0.95 {
		t.Errorf("only %.1f%% of lookups correct", 100*frac)
	}
	if missing == 0 {
		t.Error("no holes at all; noise model inert")
	}
}

func TestLookupClampsBeforeFirstSnapshot(t *testing.T) {
	g := genGraph(t)
	db, err := Build(g, BuildConfig{Seed: 3, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	ip := g.RouterIP(0, 0)
	early, okEarly := db.Lookup(ip, start.AddDate(-1, 0, 0))
	first, okFirst := db.Lookup(ip, start.Add(time.Hour))
	if okEarly != okFirst || early != first {
		t.Errorf("pre-window lookup not clamped: (%v,%v) vs (%v,%v)", early, okEarly, first, okFirst)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := genGraph(t)
	cfg := BuildConfig{Seed: 4, Start: start, End: end}
	a, _ := Build(g, cfg)
	b, _ := Build(g, cfg)
	for i := range g.ASes {
		ip := g.RouterIP(int32(i), 1)
		for m := 0; m < 12; m += 3 {
			at := start.AddDate(0, m, 10)
			av, aok := a.Lookup(ip, at)
			bv, bok := b.Lookup(ip, at)
			if av != bv || aok != bok {
				t.Fatalf("nondeterministic lookup for %v at %v", ip, at)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := genGraph(t)
	if _, err := Build(g, BuildConfig{Start: end, End: start}); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestPerfect(t *testing.T) {
	g := genGraph(t)
	db := Perfect(g, start)
	if len(db.snapshots) != 1 {
		t.Fatalf("Perfect has %d snapshots", len(db.snapshots))
	}
	for i := range g.ASes {
		ip := g.HostIP(int32(i), 7)
		got, ok := db.Lookup(ip, end)
		if !ok || got != g.ASes[i].ASN {
			t.Fatalf("Perfect lookup(%v) = %v,%v want %v", ip, got, ok, g.ASes[i].ASN)
		}
	}
}

func TestDriftMapsToNeighbor(t *testing.T) {
	g := genGraph(t)
	db, err := Build(g, BuildConfig{Seed: 5, Start: start, End: end, DriftProb: 0.2, HoleProb: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	drifted := 0
	for i := range g.ASes {
		want := g.ASes[i].ASN
		ip := g.RouterIP(int32(i), 0)
		got, ok := db.Lookup(ip, start.Add(time.Hour))
		if !ok || got == want {
			continue
		}
		drifted++
		// The wrong answer must be a real neighbor.
		isNeighbor := false
		for _, nb := range g.Neighbors[i] {
			if g.ASes[nb.Idx].ASN == got {
				isNeighbor = true
				break
			}
		}
		if !isNeighbor {
			t.Errorf("drifted mapping of %v went to non-neighbor %v", want, got)
		}
	}
	if drifted == 0 {
		t.Error("high drift probability produced no drift")
	}
}
