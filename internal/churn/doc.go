// Package churn measures network-level path churn, the phenomenon the
// paper exploits in place of strategically-placed tomography monitors.
//
// Paper correspondence: §4.2. Measure reproduces Figure 3 — how many
// distinct AS-level paths a (vantage, URL) pair traverses within a day,
// week, month or year — plus the paper's check that churn does not depend
// on the destination AS's class, and FirstPathOnly implements the
// no-churn ablation behind Figure 4 (keep only each pair's first-observed
// path and watch the CNFs go under-constrained).
//
// Entry points: Measure computes the per-granularity Distributions and,
// given a graph, the monthly split by destination class; FirstPathOnly
// filters records for the ablation.
//
// Measure is one pass over the records, read in place. It interns each
// (vantage, URL) pair and each distinct AS path once, and each
// pair-period cell keeps a count and at most MaxBucket distinct path IDs.
// While every (pair, split) meets its slices in increasing order, as
// day-ordered records always do, a record's cell is the pair's latest one
// in the split, kept in a dense array, or a new one; the first record
// that revisits an earlier slice builds a cell index and the pass probes
// it from then on. Its integer counts and divisions are the ones a
// per-granularity recount would make, so every bucket is bit-identical to
// it in any record order (TestMeasureMatchesReference, FuzzMeasure).
//
// Invariants: only conclusive records (Fail == OK) participate, matching
// what the tomography sees; Distribution buckets are fractions of
// pair-periods and sum to 1 for non-empty samples.
package churn
