// Package routing computes AS-level paths over a topology under the
// Gao–Rexford policy model and evolves them through a churn timeline of
// link failures, repairs and routing-policy shifts.
//
// Paper correspondence: §2.2/§3's enabler. Churn is the paper's central
// insight — because paths between a vantage point and a destination change
// over time, one (source, destination) pair contributes many distinct
// boolean clauses, substituting for the strategically-placed monitors
// classical boolean tomography assumes. This package is where that churn
// comes from.
//
// Entry points: GenTimeline builds the churn event Timeline; NewOracle
// wraps a Graph and Timeline, and Oracle.View opens the query interface
// the simulators use (View.AppendPath, TreeAtPlane, and View.Reset
// between days; Oracle.AppendASNs converts paths). Path queries append
// into the caller's storage. ComputeTree computes a single Gao–Rexford
// routing tree when callers need one directly.
//
// Invariants: a tree is a pure function of (graph, timeline, destination,
// epoch, plane), so a View may reuse one across epochs and what it has
// seen never changes an answer. A View reuses a tree across an epoch
// boundary only when the boundary's churn provably cannot change it (see
// View.touches); otherwise it builds a new one, by repairing a copy of
// the nearest tree it holds around the flipped links and salts (see
// View.repair), or by ComputeTree when too many flips lie between. Every
// reused or repaired tree equals a fresh ComputeTree in next hop, route
// class and length. Oracle.Stats's treeComputes counts every tree a View
// builds, fresh or repaired. A View belongs to one goroutine at a time;
// the Oracle holds no trees and no per-epoch state, only the graph, the
// timeline and two atomic work counters, so the measurement engine's
// workers share it freely, one View each. A View serves one worker's days
// in turn, with a View.Reset between them that drops its trees, so each
// day starts as on a fresh View. A View's trees live in an arena that a
// drop (on Reset, or on reaching the Oracle's bound) rewinds by an index,
// so later trees overwrite earlier ones' storage in a fixed order: a
// returned Tree is valid only until the View next drops its trees.
//
// A View moves its one link-down and salt state between epochs in one
// pass: the timeline stores every boundary's net flips back to back, so
// the flips between two epochs are one contiguous range, applied forward
// in timeline order or backward in reverse order with each link state
// negated; salt flips are XORs, so their order is free. A repair seeds
// its inconsistent ASes from the same ranges. Timeline.EpochAt
// binary-searches the epochs' starts as integers, time's own seconds and
// then nanoseconds, which order exactly as time.Time.After does on the
// timeline's wall-clock instants (GenTimeline strips monotonic readings),
// for any time however far outside the timeline; a View's path query
// looks first at its last query's epoch.
package routing
