// Package ipasmap is the simulator's stand-in for CAIDA's historical
// IP-to-AS mapping datasets: monthly longest-prefix-match snapshots used
// to convert traceroute hop addresses into AS-level paths (paper §3.1).
//
// Real mappings are imperfect, and the paper's clause-construction rules
// exist precisely to cope with that: snapshots here deliberately contain
// holes (prefixes missing from a month's snapshot) and drift (prefixes
// temporarily attributed to a neighboring AS), so the four
// inconclusive-path elimination rules in internal/traceroute all get
// exercised.
//
// Entry points: Build generates the DB over a topology; DB.Lookup maps an
// address at a timestamp through the snapshot covering that month, and
// DB.At picks that Snapshot once for a caller mapping many addresses at
// one time (a test's traceroutes).
//
// Invariants: Build is deterministic for a BuildConfig; the DB is
// immutable afterward and shared read-only across measurement workers.
package ipasmap
