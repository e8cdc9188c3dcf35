// Package analysis computes the paper's Figure 4, the no-churn ablation:
// CNFs rebuilt from each (vantage, URL) pair's first observed path only,
// with their models counted up to 5+. It shows that path churn is what
// makes the tomography solvable.
//
// Figure4 is the one exhibit that needs a second CNF build and a model
// counter, so it is not a fold over a run's outcomes. The root package
// calls it under WithChurnAblation and reports the rows as
// Result.NoChurn. Every other table and figure is printed by churnlab
// from the public Result.
//
// Invariants: Figure4 is a pure function of its records (no RNG, no
// clock), and its output does not depend on the worker count.
package analysis
