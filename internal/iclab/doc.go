// Package iclab simulates the measurement platform the paper builds on: a
// set of vantage points repeatedly testing a URL list — DNS lookups through
// two resolvers, HTTP GETs with packet captures, blockpage comparison
// against a censor-free baseline, and three traceroutes per test — over a
// churning Internet with censoring ASes on some paths.
//
// Paper correspondence: §2.1/§3.1. The output records are the
// reproduction's stand-in for the ICLab data the paper consumes (its
// Table 1). Each Record carries exactly the fields the paper's records
// have: vantage AS, URL, per-anomaly outcome and a timestamp, plus the AS
// path inferred from the test's three traceroutes, which are consumed
// during measurement and not kept. Ground truth (which censor actually
// acted) rides along in clearly-marked fields used only for validation —
// the tomography must never read them (TestGroundTruthIsolation enforces
// this). A record is written once, when measured, and only read after.
//
// Entry points: BuildScenario selects vantages and targets over a prepared
// substrate; RunByDayCtx executes the schedule into one record shard per
// day, the shape streaming consumers push day by day; MergeShards turns
// the shards into the batch sequence and NewDataset wraps it with the
// Table 1 stats ComputeTable1 derives.
//
// Layout: a run's records lie in one day-ordered table. RunByDayCtx
// allocates days × per-day records up front, since the schedule has no
// conditional skips, and each day fills its own span, so the shards are
// adjacent views of the table. MergeShards returns the table's own span
// when the shards are such views, checked by element address, and copies
// any other layout into a new sequence, so correctness never depends on
// the layout. A shard's capacity runs on into the next day: shards are
// read-only, like their records.
//
// Invariants: measurement is deterministic at every worker count. Each day
// owns an RNG stream derived from (seed, day) alone via DaySeed — a
// splitmix64 finalizer over the day index — so a day's randomness never
// depends on which worker ran it or when, and parallel output is
// bit-identical to serial. A day measures in a day scratch: a
// routing.View and every buffer a test fills (packet captures, the
// reassembled body, router-level expansions and traceroute hops). A
// RunByDayCtx call keeps a free list of them, and a worker takes one when
// a day starts and returns it when the day ends, so a worker's days reuse
// one View and one set of buffers. The View is Reset between days, so a
// day starts with no trees, exactly as on a fresh View; a tree a day
// computes serves that day's later queries for as long as churn leaves it
// unchanged. Every buffer is overwritten before it is read, so which
// scratch a day gets never changes a record. The fleet tests URLs in
// lockstep (every vantage measures the same URLs on the same day), which
// is what gives the per-URL CNFs their breadth.
package iclab
