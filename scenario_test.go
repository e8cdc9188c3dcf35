package churntomo

// Tests for the pluggable scenario framework's public surface: the preset
// catalog, end-to-end smoke runs of every preset, the determinism
// regression (same preset + same seed twice = byte-identical identified
// censors), streaming/batch agreement under a non-default preset, and the
// paper-baseline equivalence with a scenario-less run.

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"churntomo/internal/sat"
	"churntomo/internal/tomo"
)

// requiredPresets is the catalog the issue and README promise.
var requiredPresets = []string{
	"paper-baseline", "national-firewall", "transit-leakage",
	"bgp-storm", "regional-outage", "policy-flap", "path-diverse",
	"routing-shift", "ecmp-multipath", "chokepoint",
}

// smokeConfig is the smallest configuration that still runs the whole
// pipeline: every preset must survive it.
func smokeConfig() Config {
	return Config{
		Seed: 1, ASes: 80, Countries: 12,
		Vantages: 8, URLs: 10, Days: 8, URLsPerDay: 4, RepeatsPerDay: 1,
	}
}

// censorFingerprint serializes an identification map into a canonical byte
// string, so "byte-identical" comparisons are literal.
func censorFingerprint(m map[ASN]*IdentifiedCensor) string {
	asns := make([]ASN, 0, len(m))
	for a := range m {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var b strings.Builder
	for _, a := range asns {
		c := m[a]
		urls := make([]string, 0, len(c.URLs))
		for u := range c.URLs {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		fmt.Fprintf(&b, "%v kinds=%v cnfs=%d urls=%v\n", a, c.Kinds, c.CNFs, urls)
	}
	return b.String()
}

func TestScenarioCatalog(t *testing.T) {
	infos := Scenarios()
	if len(infos) < 6 {
		t.Fatalf("only %d presets registered, want >= 6", len(infos))
	}
	byName := map[string]ScenarioInfo{}
	for _, info := range infos {
		byName[info.Name] = info
		if info.Description == "" || info.Echoes == "" {
			t.Errorf("preset %q lacks catalog text: %+v", info.Name, info)
		}
		for _, axis := range []string{info.Topology, info.Churn, info.Censors, info.Platform} {
			if axis == "" {
				t.Errorf("preset %q has an unnamed provider axis: %+v", info.Name, info)
			}
		}
	}
	for _, name := range requiredPresets {
		if _, ok := byName[name]; !ok {
			t.Errorf("required preset %q missing from catalog", name)
		}
	}
	if infos[0].Name != ScenarioBaseline {
		t.Errorf("catalog starts with %q, want %q", infos[0].Name, ScenarioBaseline)
	}
	if _, err := ScenarioByName("no-such-world"); err == nil {
		t.Error("unknown preset name resolved")
	}
}

func TestScenarioPresetsSmoke(t *testing.T) {
	for _, name := range requiredPresets {
		name := name
		t.Run(name, func(t *testing.T) {
			exp, err := New(WithConfig(smokeConfig()), WithScenario(name))
			if err != nil {
				t.Fatal(err)
			}
			res, err := exp.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Scenario != name {
				t.Errorf("Summary.Scenario = %q, want %q", res.Summary.Scenario, name)
			}
			if res.Summary.Measurements == 0 {
				t.Error("no measurements recorded")
			}
			if res.Summary.CNFs == 0 {
				t.Error("no CNFs built")
			}
			byClass := checkOutcomesAgainstSearch(t, res.cell.outcomes)
			t.Logf("%d outcomes match SAT search; by 0/1/2+ models: %v", res.Summary.CNFs, byClass)
		})
	}
}

// checkOutcomesAgainstSearch checks every outcome of a run, field for
// field, against SAT search on a copy of its CNF (search permutes literals
// inside clauses): sat.Classify gives the class and the unique model,
// sat.PotentialTrue the potential censors. It returns the outcome count
// by class.
func checkOutcomesAgainstSearch(t *testing.T, outcomes []tomo.Outcome) (byClass [3]int) {
	t.Helper()
	for _, got := range outcomes {
		in := got.Inst
		cnf := &sat.CNF{NumVars: in.CNF.NumVars}
		for _, cl := range in.CNF.Clauses {
			cnf.AddClause(cl...)
		}
		want := tomo.Outcome{Inst: in, TotalVars: len(in.Vars)}
		var model sat.Model
		want.Class, model = sat.Classify(cnf)
		var pot []bool
		if want.Class == sat.Multiple {
			pot = sat.PotentialTrue(cnf)
		}
		for v := 1; v <= cnf.NumVars; v++ {
			switch {
			case want.Class == sat.Unique && model[v]:
				want.Censors = append(want.Censors, in.Vars[v-1])
			case want.Class == sat.Multiple && pot[v]:
				want.Potential = append(want.Potential, in.Vars[v-1])
			case want.Class == sat.Multiple:
				want.Eliminated++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CNF %v: outcome %+v, SAT search %+v", in.Key, got, want)
		}
		byClass[want.Class]++
	}
	return byClass
}

// TestScenarioDeterminism pins the repo's core guarantee for a non-default
// preset: same preset + same seed, run twice, yields byte-identical
// IdentifiedCensor maps.
func TestScenarioDeterminism(t *testing.T) {
	run := func() string {
		exp, err := New(WithConfig(smokeConfig()), WithScenario("bgp-storm"), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return censorFingerprint(res.Identified)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same preset + seed not byte-identical:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestScenarioStreamingMatchesBatch pins mode-independence under a
// non-default preset: a cumulative streaming replay's final window equals
// the batch identifications byte for byte.
func TestScenarioStreamingMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two end-to-end runs in -short mode")
	}
	batch, err := New(WithConfig(smokeConfig()), WithScenario("regional-outage"))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := batch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	streamExp, err := New(WithConfig(smokeConfig()), WithScenario("regional-outage"), WithWindow(0))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := streamExp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := censorFingerprint(sres.Identified), censorFingerprint(bres.Identified); got != want {
		t.Fatalf("streaming final window differs from batch:\n--- stream ---\n%s--- batch ---\n%s", got, want)
	}
	if sres.Summary.Scenario != bres.Summary.Scenario {
		t.Errorf("modes disagree on scenario: %q vs %q", sres.Summary.Scenario, bres.Summary.Scenario)
	}
}

// TestScenarioBaselineMatchesDefault pins the refactor's compatibility
// promise: selecting paper-baseline explicitly is byte-identical to not
// mentioning scenarios at all.
func TestScenarioBaselineMatchesDefault(t *testing.T) {
	implicit, err := New(WithConfig(smokeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ires, err := implicit.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := New(WithConfig(smokeConfig()), WithScenario(ScenarioBaseline))
	if err != nil {
		t.Fatal(err)
	}
	eres, err := explicit.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := censorFingerprint(eres.Identified), censorFingerprint(ires.Identified); got != want {
		t.Fatalf("explicit paper-baseline differs from default:\n--- explicit ---\n%s--- default ---\n%s", got, want)
	}
	if ires.Summary.Scenario != ScenarioBaseline {
		t.Errorf("default run recorded scenario %q, want %q", ires.Summary.Scenario, ScenarioBaseline)
	}
}

// TestScenarioSpecComposition runs an ad-hoc composed spec: a preset
// fetched by name with one axis swapped, the framework's whole point.
func TestScenarioSpecComposition(t *testing.T) {
	spec, err := ScenarioByName("bgp-storm")
	if err != nil {
		t.Fatal(err)
	}
	storm, err := ScenarioByName("national-firewall")
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "firewall-under-storm"
	spec.Censors = storm.Censors
	spec.Platform = storm.Platform

	exp, err := New(WithConfig(smokeConfig()), WithScenarioSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Scenario != "firewall-under-storm" {
		t.Errorf("Summary.Scenario = %q, want the composed spec's name", res.Summary.Scenario)
	}
}

func TestWithScenarioValidation(t *testing.T) {
	if _, err := New(WithScenario("no-such-world")); err == nil {
		t.Error("unknown scenario accepted by New")
	}
	if _, err := New(WithScenario("")); err == nil {
		t.Error("empty scenario name accepted by New")
	}
	cfg := smokeConfig()
	cfg.Scenario = "no-such-world"
	if _, err := New(WithConfig(cfg)); err == nil {
		t.Error("unknown Config.Scenario accepted by New")
	}
	bad := smokeConfig()
	bad.Scenario = "no-such-world"
	if _, err := New(WithConfigs(smokeConfig(), bad)); err == nil {
		t.Error("unknown scenario in a matrix cell accepted by New")
	}
}

// TestScenarioMatrixCells runs a seed sweep under a preset and checks the
// scenario name survives into every cell config.
func TestScenarioMatrixCells(t *testing.T) {
	exp, err := New(WithConfig(smokeConfig()), WithScenario("path-diverse"), WithSeedSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matrix == nil || res.Matrix.Failed != 0 {
		t.Fatalf("matrix run failed: %+v", res.Matrix)
	}
	for _, cell := range res.Cells {
		if cell.Config.Scenario != "path-diverse" {
			t.Errorf("cell %d lost the scenario: %q", cell.Index, cell.Config.Scenario)
		}
	}
}

// TestRegisterScenarioRoundTrip registers a custom preset and runs it by
// name through the same option as the built-ins.
func TestRegisterScenarioRoundTrip(t *testing.T) {
	spec := ScenarioSpec{
		Name:        "test-registered",
		Description: "registry round-trip fixture",
		Echoes:      "this test",
	}
	if err := RegisterScenario(spec); err != nil {
		t.Fatal(err)
	}
	if err := RegisterScenario(spec); err == nil {
		t.Error("duplicate registration accepted")
	}
	exp, err := New(WithConfig(smokeConfig()), WithScenario("test-registered"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Scenario != "test-registered" {
		t.Errorf("Summary.Scenario = %q", res.Summary.Scenario)
	}
	// The fixture leaves all axes nil, so its world must equal baseline's.
	base, err := New(WithConfig(smokeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if censorFingerprint(res.Identified) != censorFingerprint(bres.Identified) {
		t.Error("all-default registered spec differs from baseline")
	}
}

// TestScenarioSpecSurvivesWithConfig pins option-order robustness: a
// WithConfig after WithScenarioSpec replaces the base config, but the
// explicit spec still decides the world and stays recorded.
func TestScenarioSpecSurvivesWithConfig(t *testing.T) {
	spec, err := ScenarioByName("bgp-storm")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(WithScenarioSpec(spec), WithConfig(smokeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Scenario != "bgp-storm" {
		t.Errorf("Summary.Scenario = %q, want the overriding spec's name", res.Summary.Scenario)
	}
}

// TestScenarioOptionOrderIndependence pins that scenario selection, named
// or composed, survives a later WithConfig: the last scenario option
// decides the world regardless of where WithConfig sits.
func TestScenarioOptionOrderIndependence(t *testing.T) {
	before, err := New(WithScenario("bgp-storm"), WithConfig(smokeConfig()))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := before.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(WithConfig(smokeConfig()), WithScenario("bgp-storm"))
	if err != nil {
		t.Fatal(err)
	}
	ares, err := after.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bres.Summary.Scenario != "bgp-storm" {
		t.Errorf("WithScenario before WithConfig lost: Summary.Scenario = %q", bres.Summary.Scenario)
	}
	if got, want := censorFingerprint(bres.Identified), censorFingerprint(ares.Identified); got != want {
		t.Fatalf("option order changed the world:\n--- scenario-first ---\n%s--- config-first ---\n%s", got, want)
	}
}

// TestScenarioSpecConflictsWithCellNames pins that an explicit spec
// override refuses to silently shadow a cell's own scenario request.
func TestScenarioSpecConflictsWithCellNames(t *testing.T) {
	spec, err := ScenarioByName("bgp-storm")
	if err != nil {
		t.Fatal(err)
	}
	named := smokeConfig()
	named.Scenario = "transit-leakage"
	if _, err := New(WithConfigs(smokeConfig(), named), WithScenarioSpec(spec)); err == nil {
		t.Error("conflicting cell scenario accepted alongside WithScenarioSpec")
	}
	// Cells that name nothing (or the same scenario) are fine and get the
	// override recorded.
	same := smokeConfig()
	same.Scenario = "bgp-storm"
	exp, err := New(WithConfigs(smokeConfig(), same), WithScenarioSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		if cell.Config.Scenario != "bgp-storm" {
			t.Errorf("cell %d records scenario %q, want the override's name", cell.Index, cell.Config.Scenario)
		}
	}
}

// TestScenarioCellInheritance pins that WithScenario flows into WithConfigs
// cells that do not name their own scenario, while explicit cell names win.
func TestScenarioCellInheritance(t *testing.T) {
	named := smokeConfig()
	named.Scenario = "transit-leakage"
	exp, err := New(WithConfigs(smokeConfig(), named), WithScenario("path-diverse"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Config.Scenario; got != "path-diverse" {
		t.Errorf("unnamed cell records %q, want the experiment-level preset", got)
	}
	if got := res.Cells[1].Config.Scenario; got != "transit-leakage" {
		t.Errorf("explicitly named cell records %q, want its own preset", got)
	}
}
