package churntomo

// The public face of the pluggable scenario framework. Worlds are built by
// composing four provider axes — topology, churn process, censor regime,
// platform profile — registered behind named presets; experiments select
// one with WithScenario(name), and a composition of their own runs the
// same way once RegisterScenario has added it. The internal/scenario
// package owns the interfaces and the registry; this file re-exports what
// external consumers need so they never import churntomo/internal
// (enforced by `make api-check`).

import "churntomo/internal/scenario"

// ScenarioBaseline names the default preset: the paper's original
// pipeline, byte for byte.
const ScenarioBaseline = scenario.DefaultName

// ScenarioSpec composes one world generator from the four provider axes
// (topology, churn, censors, platform). A nil axis means the
// paper-baseline provider, so overriding a single axis is a one-liner.
// Fetch a registered preset's spec with ScenarioByName, swap axes, then
// register the result under a new name and select it with WithScenario.
type ScenarioSpec = scenario.Spec

// ScenarioInfo describes one registered preset for catalogs: its identity,
// what it models, and the four resolved provider names.
type ScenarioInfo struct {
	// Name keys the registry (churnlab -scenario <name>).
	Name string
	// Description is a one-line summary of the modeled world.
	Description string
	// Echoes names the paper section or related work the preset models.
	Echoes string
	// Topology, Churn, Censors and Platform are the resolved provider
	// names on each axis ("paper" = the baseline implementation).
	Topology, Churn, Censors, Platform string
}

// Scenarios lists every registered preset in catalog order
// (paper-baseline first).
func Scenarios() []ScenarioInfo {
	names := scenario.Names()
	out := make([]ScenarioInfo, 0, len(names))
	for _, name := range names {
		spec, ok := scenario.Preset(name)
		if !ok {
			continue
		}
		c := spec.Components()
		out = append(out, ScenarioInfo{
			Name: spec.Name, Description: spec.Description, Echoes: spec.Echoes,
			Topology: c[0], Churn: c[1], Censors: c[2], Platform: c[3],
		})
	}
	return out
}

// ScenarioByName returns the named preset's spec, as a base to swap axes
// on before RegisterScenario.
func ScenarioByName(name string) (ScenarioSpec, error) {
	return resolveScenario(name)
}

// RegisterScenario adds a preset to the registry, making it addressable by
// WithScenario and visible to Scenarios (and to churnlab/genlab). Names
// must be unique; registering over a taken name errors.
func RegisterScenario(spec ScenarioSpec) error {
	return scenario.Register(spec)
}
