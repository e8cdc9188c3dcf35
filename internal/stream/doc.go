// Package stream is the windowed, incremental face of the localization
// pipeline: it ingests measurement records day by day and emits sliding-
// or growing-window tomography results, instead of re-solving the full
// record set from scratch.
//
// Paper correspondence: the paper's key observation is that localization
// sharpens as path churn accumulates over time (§4.2: more distinct paths
// per (vantage, URL) pair mean more distinct clauses per CNF). The batch
// pipeline exploits that only implicitly, by ingesting a year at once; a
// production system serving a live measurement feed must localize
// per window as days arrive. This package supplies that execution mode,
// and Converge quantifies the paper's sharpening directly: how many
// windows until each censor's identification stabilizes.
//
// Entry points: NewEngine configures the window shape (width, stride,
// per-window identification threshold); Engine.PushCtx ingests one day and
// returns a Window whenever one completes, and Engine.FlushCtx localizes
// the tail days no window covered; Converge folds a window timeline into
// per-censor convergence stats. A streaming churntomo.Experiment
// (WithWindow/WithStride) drives a whole scenario replay through an
// Engine.
//
// Invariants: every emitted Window is field-for-field identical to what
// the batch pipeline would produce over exactly the window's records —
// incrementality, like parallelism, never changes output (pinned by the
// stream and tomo equivalence tests). Replays are deterministic at every
// Build.Workers setting. Under the hood days enter and retract through
// tomo.Incremental, so a window boundary re-solves only the CNFs it
// touched; the Window's Solved/Reused counters expose that work split.
package stream
