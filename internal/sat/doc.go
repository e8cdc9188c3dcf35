// Package sat is a from-scratch boolean satisfiability solver: DPLL search
// with two-literal watching, unit propagation, assumptions, model
// enumeration via blocking clauses, and DIMACS I/O (see FORMAT.md for the
// accepted DIMACS subset). It also defines the CNF, Lit and Classification
// types the tomography builds its instances from.
//
// Paper correspondence: §3.2. The paper hands each per-(URL, time slice,
// anomaly) CNF to "an off-the-shelf SAT solver" and classifies the
// outcome: no solution (noise or a policy change), exactly one solution
// (censors exactly identified) or multiple solutions (only elimination
// possible). The pipeline no longer searches for that answer: tomo.Solve
// reads it off the CNF's fixed shape in closed form. This package is the
// reference solver for every CNF, shaped or not:
//
//   - Figure 4's model counter: analysis.Figure4 buckets the no-churn
//     ablation's CNFs by CountModels (0..5+).
//   - cmd/satsolve's engine: Solve, CountModels and PotentialTrue over a
//     DIMACS file.
//   - tomo's test oracle: Classify (0/1/2+ via a blocking clause) and
//     PotentialTrue (one SolveAssume "could AS x be a censor?" query per
//     variable) are what tomo.Solve is checked against, on every preset's
//     instances and on fuzzed CNFs.
//
// Entry points: NewSolver builds a solver over a CNF; Classify,
// CountModels, EnumerateModels and PotentialTrue answer the whole-CNF
// queries; ParseDIMACS/WriteDIMACS read and write the solver's exchange
// format.
//
// Invariants: tomography instances are small — tens of variables, dozens
// of clauses — but enumeration over under-constrained CNFs can touch
// 2^free models, so every enumerating entry point takes a cap. The search
// tries False first, so the first model found is the minimal-censorship
// one. Solving permutes literals inside the CNF's shared clause slices
// (watch normalization): the clause set is never changed, but callers must
// not rely on intra-clause literal order after a solve, nor mutate clauses
// during one.
package sat
