package scenario

import (
	"errors"
	"testing"
	"time"

	"churntomo/internal/routing"
	"churntomo/internal/topology"
)

// defaultSpec returns the paper-baseline preset.
func defaultSpec() Spec {
	s, ok := Preset(DefaultName)
	if !ok {
		panic("scenario: default preset not registered")
	}
	return s
}

func smokeParams(seed uint64) Params {
	start := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	return Params{
		Seed: seed, ASes: 80, Countries: 12,
		Vantages: 8, URLs: 10,
		Start: start, End: start.AddDate(0, 0, 10),
	}
}

func TestRegistryBuiltins(t *testing.T) {
	want := []string{
		DefaultName, "national-firewall", "transit-leakage",
		"bgp-storm", "regional-outage", "policy-flap", "path-diverse",
		"routing-shift", "ecmp-multipath", "chokepoint",
	}
	names := Names()
	if len(names) < len(want) {
		t.Fatalf("only %d presets registered, want at least %d", len(names), len(want))
	}
	for _, w := range want {
		if _, ok := Preset(w); !ok {
			t.Errorf("preset %q not registered", w)
		}
	}
	if names[0] != DefaultName {
		t.Errorf("catalog order starts with %q, want %q", names[0], DefaultName)
	}
	if defaultSpec().Name != DefaultName {
		t.Errorf("defaultSpec() is %q", defaultSpec().Name)
	}
}

func TestRegisterRejectsBadSpecs(t *testing.T) {
	if err := Register(Spec{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register(Spec{Name: DefaultName}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestSpecComponentsDefaulted(t *testing.T) {
	var s Spec
	got := s.Components()
	for i, name := range got {
		if name != "paper" {
			t.Errorf("axis %d of the zero spec is %q, want \"paper\"", i, name)
		}
	}
	flap, _ := Preset("policy-flap")
	c := flap.Components()
	if c[1] != "policy-shift-heavy" || c[2] != "per-isp-flapping" {
		t.Errorf("policy-flap components = %v", c)
	}
	if c[0] != "paper" || c[3] != "paper" {
		t.Errorf("policy-flap unexpectedly overrides topology/platform: %v", c)
	}
}

func TestBuildEveryPresetSmoke(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Preset(name)
		w, err := Build(spec, smokeParams(1), nil)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if w.Graph == nil || w.Timeline == nil || w.Oracle == nil ||
			w.Censors == nil || w.DB == nil || w.Platform == nil {
			t.Fatalf("preset %q: incomplete world %+v", name, w)
		}
		if w.Censors.Len() == 0 {
			t.Errorf("preset %q placed no censors", name)
		}
		if len(w.Platform.Vantages) != smokeParams(1).Vantages {
			t.Errorf("preset %q: %d vantages, want %d", name, len(w.Platform.Vantages), smokeParams(1).Vantages)
		}
	}
}

func TestBuildStageHookOrderAndAbort(t *testing.T) {
	var seen []Stage
	_, err := Build(defaultSpec(), smokeParams(2), func(s Stage) error {
		seen = append(seen, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageTopology, StageTimeline, StageCensors, StageIPASMap, StagePlatform}
	if len(seen) != len(want) {
		t.Fatalf("stages %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("stages %v, want %v", seen, want)
		}
	}

	boom := errors.New("abort")
	n := 0
	_, err = Build(defaultSpec(), smokeParams(2), func(Stage) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("hook error not propagated unwrapped: %v", err)
	}
	if n != 3 {
		t.Fatalf("build continued past aborting hook: %d stages ran", n)
	}
}

// TestBuildMatchesMonolith pins the seed-offset contract: the baseline
// world must equal what the historical hard-coded chain produces when
// invoked directly with the same offsets.
func TestBuildMatchesMonolith(t *testing.T) {
	p := smokeParams(3)
	w, err := Build(defaultSpec(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Generate(topology.GenConfig{Seed: p.Seed, ASes: p.ASes, Countries: p.Countries})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ASes) != len(w.Graph.ASes) || len(g.Links) != len(w.Graph.Links) {
		t.Fatalf("topology differs from monolithic chain: %d/%d ASes, %d/%d links",
			len(w.Graph.ASes), len(g.ASes), len(w.Graph.Links), len(g.Links))
	}
	for i := range g.ASes {
		if g.ASes[i].ASN != w.Graph.ASes[i].ASN {
			t.Fatalf("AS %d differs: %v vs %v", i, w.Graph.ASes[i].ASN, g.ASes[i].ASN)
		}
	}
	tl, err := routing.GenTimeline(g, routing.TimelineConfig{Seed: p.Seed + 1, Start: p.Start, End: p.End})
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumEvents() != w.Timeline.NumEvents() || tl.NumEpochs() != w.Timeline.NumEpochs() {
		t.Fatalf("timeline differs: %d/%d events, %d/%d epochs",
			w.Timeline.NumEvents(), tl.NumEvents(), w.Timeline.NumEpochs(), tl.NumEpochs())
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec, _ := Preset("bgp-storm")
	a, err := Build(spec, smokeParams(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(spec, smokeParams(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Timeline.NumEvents() != b.Timeline.NumEvents() {
		t.Errorf("event counts differ: %d vs %d", a.Timeline.NumEvents(), b.Timeline.NumEvents())
	}
	aa, bb := a.Censors.ASNs(), b.Censors.ASNs()
	if len(aa) != len(bb) {
		t.Fatalf("censor counts differ: %d vs %d", len(aa), len(bb))
	}
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("censor %d differs: %v vs %v", i, aa[i], bb[i])
		}
	}
	for i := range a.Platform.Targets {
		if a.Platform.Targets[i].URL.Host != b.Platform.Targets[i].URL.Host {
			t.Fatalf("target %d differs", i)
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	p := smokeParams(5)
	p.End = p.Start
	if _, err := Build(defaultSpec(), p, nil); err == nil {
		t.Error("degenerate period accepted")
	}
	p = smokeParams(5)
	p.ASes = 4 // below the topology generator's minimum
	if _, err := Build(defaultSpec(), p, nil); err == nil {
		t.Error("tiny topology accepted")
	}
}
