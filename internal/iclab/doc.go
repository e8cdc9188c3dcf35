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
// the shards into the batch sequence, and ComputeTable1 derives its
// Table 1 stats. NumberPaths numbers a record table's AS paths, and an
// Arena carves a table's record slices from shared chunks.
//
// Path numbering: a Record's PathID numbers its ASPath within its table.
// Records of one table with equal paths share one ID and one backing
// array, IDs run 1.. in first-seen table order (the empty path is a value
// like any other), and 0 means not numbered. Every producer numbers its
// table: RunByDayCtx once measurement ends, dataset decode as it parses,
// and a copy of a caller's records (cloneDays in the root package)
// afresh. NumberPaths and decode share PathNumbering, an index of IDs by
// a byte key one-to-one with the path, which allocates no string per
// path. The CNF fold, the churn summary and the no-churn ablation read
// the ID instead of hashing the path, and panic on a conclusive record
// without one. The field sits in Vantage's padding, so a record stays
// 176 bytes (TestRecordSize). ComputeTable1 probes its sets only where a
// value changes from the record before or misses a small cache of the
// vantages counted, not once per record.
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
// Blockpage verdicts: a test's delivered body is nearly always one of a
// few fixed pages, the target's censor-free page or a rendered
// blockpage, or one of those with the rest of the target's page after
// it. RunByDayCtx runs the fingerprint DB's Match once on every target
// page and every rendered blockpage before the first day, and a test
// checks its body against its candidates, the target's page and the
// pages its Block injectors serve, by one rule: a body equal to a
// non-empty candidate byte for byte takes that page's verdict; one that
// begins with a candidate the DB matches is matched, since a marker or
// generic match inside the page is still inside the body; any other body
// is matched as before. The length heuristic is always computed live,
// so the answer is detect.Blockpage's (TestFixedPageVerdicts).
//
// Invariants: measurement is deterministic at every worker count. Each day
// owns an RNG stream derived from (seed, day) alone via DaySeed — a
// splitmix64 finalizer over the day index — so a day's randomness never
// depends on which worker ran it or when, and parallel output is
// bit-identical to serial. A day measures in a day scratch: a
// routing.View and every buffer a test fills (path-query results,
// packet captures and DNS payloads, the reassembled body, router-level
// expansions, traceroute hops, path inference and the HTTP detector's
// segment list), plus an arena the records' true and inferred paths are
// carved from; an inferred path equal to the true one shares its
// array. A
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
