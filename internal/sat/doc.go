// Package sat defines the CNF and Lit types, into which tomo.CNFOf writes
// a tomography instance out for tomo.Build and the tests, and the
// Classification a tomo.Outcome carries. It keeps a from-scratch DPLL
// solver (two-literal watching, unit propagation, assumptions, model
// enumeration via blocking clauses) as the test oracle for the closed
// forms that replaced search in the pipeline.
//
// Paper correspondence: §3.2. The paper hands each per-(URL, time slice,
// anomaly) CNF to "an off-the-shelf SAT solver" and classifies the
// outcome: no solution (noise or a policy change), exactly one solution
// (censors exactly identified) or multiple solutions (only elimination
// possible). The pipeline no longer searches for that answer, nor writes
// the CNF out: tomo.Solve reads it in closed form off the instance's
// clean-path variables and censored paths, and tomo.CountModels counts
// Figure 4's models the same way. No production path calls the solver.
// The tests hold both closed forms to it, on every preset's instances and
// on fuzzed CNFs: Classify (0/1/2+ via a blocking clause),
// PotentialTrue (one SolveAssume "could AS x be a censor?" query per
// variable) and CountModels (models up to a cap).
//
// Entry points: CNF.AddClause builds a CNF; NewSolver builds a
// solver over a CNF; Classify, CountModels and PotentialTrue answer the
// whole-CNF queries.
//
// Invariants: tomography instances are small — tens of variables, dozens
// of clauses — but enumeration over under-constrained CNFs can touch
// 2^free models, so CountModels takes a cap. The search tries False
// first, so the first model found is the minimal-censorship one. Solving
// permutes literals inside the CNF's shared clause slices (watch
// normalization): the clause set is never changed, but callers must not
// rely on intra-clause literal order after a solve, nor mutate clauses
// during one.
package sat
