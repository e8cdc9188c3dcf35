// Package timeslice partitions measurement timestamps into the four time
// granularities used by the paper's CNF construction: day, week, month and
// year (§3.1, "Time- and URL-based splitting"). Each timestamp maps to
// exactly one slice key per granularity, and a slice key identifies the
// half-open interval [Start, End) it covers.
//
// Entry points: KeyFor maps a timestamp to its Key at a granularity;
// Key.Start/End/Contains recover the interval.
//
// Invariants: all computations are in UTC, mirroring how measurement
// platforms normalize probe timestamps before aggregation. Keys are
// comparable and usable as map keys; two timestamps share a Key exactly
// when they fall in the same slice, and Key.Index is monotone in time
// within a granularity (the streaming engine relies on this to order
// slices).
package timeslice
