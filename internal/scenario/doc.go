// Package scenario is the pluggable world-construction framework: it
// decomposes "generate an experiment substrate" into four composable
// provider interfaces — TopologyProvider (the AS graph), ChurnProcess (the
// routing timeline: link flaps, policy shifts, regional outage bursts),
// CensorRegime (where censors sit and how their policies evolve) and
// PlatformProfile (vantage/target/fingerprint selection) — and composes
// them into named, registered presets (paper-baseline, national-firewall,
// transit-leakage, bgp-storm, regional-outage, policy-flap, path-diverse).
//
// Build executes a Spec at a given scale, applying the same per-stage seed
// offsets the original monolithic pipeline used, so the paper-baseline
// preset reproduces its output bit for bit and every preset inherits the
// repo-wide guarantee: same preset + same seed is byte-identical across
// runs and across serial/parallel/streaming execution.
//
// The public API mirror lives in the root package (WithScenario,
// RegisterScenario, Scenarios); churnlab selects presets with -scenario
// and genlab lists and describes them.
package scenario
