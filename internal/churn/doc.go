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
// Measure is one pass over the records, read in place. A record's path
// is its path ID (iclab.NumberPaths), so the records must come from one
// numbered table, and a conclusive record without an ID panics. Its
// (vantage, URL) pair comes from a pair table: records come grouped by
// URL, so a URL is interned only where it changes, and each URL lists
// its vantages, scanned from the last one found, since the fleet visits
// them in the same order every day. Each pair-period cell keeps a count
// and at most MaxBucket distinct path IDs, and the cells grow in fixed
// blocks, never copied. A record's slices are computed once per day.
// While every (pair, split) meets its slices in increasing order, as
// day-ordered records always do, a record's cell is the pair's latest one
// in the split, kept in a dense array, or a new one; the first record
// that revisits an earlier slice builds a cell index and the pass probes
// it from then on. Its integer counts and divisions are the ones a
// per-granularity recount would make, so every bucket is bit-identical to
// it in any record order (TestMeasureMatchesReference, FuzzMeasure, whose
// reference keys paths by value). FirstPathOnly compares path IDs too,
// keeps each pair's first in a dense table, and sizes its output with a
// counting pass (TestFirstPathOnlyMatchesReference).
//
// Invariants: only conclusive records (Fail == OK) participate, matching
// what the tomography sees; Distribution buckets are fractions of
// pair-periods and sum to 1 for non-empty samples.
package churn
