// Package tomo is the paper's primary contribution: boolean network
// tomography over censorship measurements (§3).
//
// Each usable measurement record contributes one clause: the disjunction
// of the ASes on its inferred AS-level path, asserted True when the
// record's anomaly fired and False otherwise (a False clause is the
// conjunction of the negated literals). Clauses are grouped into one CNF
// per (URL, time slice, anomaly kind) — day, week, month and year
// granularities — and solved. A unique model exactly identifies censoring
// ASes; multiple models still eliminate most ASes as definite non-censors;
// no model indicates measurement noise or a policy change inside the slice
// (§3.2's trichotomy). Where the paper runs a SAT solver, Solve reads the
// trichotomy off the CNF's fixed shape in closed form (its doc carries the
// argument); internal/sat's search is the oracle the tests hold it to.
//
// Entry points: Build constructs CNF Instances from records, BuildAndSolve
// streams solving into construction, Solve/SolveAll classify instances
// into Outcomes, and IdentifyCensors folds unique-solution outcomes into
// the named-censor map. NewIncremental is the streaming counterpart: day
// batches enter via AddDay, retract via RemoveDay, and
// Incremental.BuildAndSolve re-solves only the CNFs a batch touched,
// serving the rest from the previous call's outcomes.
//
// Invariants: construction is a commutative fold, so any record sharding
// reconstructs the serial grouping exactly, and output order is fixed
// (keyLess: URL, granularity, slice index, anomaly kind) at every worker
// count. The incremental engine's results are field-for-field identical to
// the batch engine's over the same resident records — the streaming
// determinism guarantee, pinned by TestIncrementalMatchesBatch and
// FuzzIncrementalVsBatch. The tomography never reads ground-truth record
// fields.
package tomo
