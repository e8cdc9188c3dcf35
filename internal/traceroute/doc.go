// Package traceroute simulates the platform's path measurements and the
// AS-level path inference the tomography consumes.
//
// Paper correspondence: §3.1. Each ICLab test records three traceroutes
// toward the destination. The simulator expands an AS-index path into
// router-level hops, then simulates probing (non-responsive hops, outright
// failures). The inference side converts hop addresses back to an AS path
// using the historical IP-to-AS database and applies the paper's four
// elimination rules for inconclusive paths:
//
//  1. no IP in the traceroute could be mapped;
//  2. the traceroute itself failed;
//  3. a silent hop sits between two different ASes (AS inference ambiguous);
//  4. the three traceroutes disagree at the AS level.
//
// Entry points: Expand derives the router-level Expansion of an AS path;
// Probe simulates one traceroute over it; both fill caller-owned storage
// and reuse it, overwriting every hop. Inferrer.Consensus folds a test's
// three traces into the inferred AS path or a FailReason naming the
// elimination rule that fired, mapping hops through the IP-to-AS
// snapshot the caller picked once for the test (ipasmap.DB.At). An
// Inferrer is reused test after test: it infers each trace in one pass
// over its hops, maps a hop an earlier trace of the test had at the same
// address only once, and returns the path in its own storage, so a test
// allocates nothing. The allocating Infer and InferConsensus it replaced
// live on in the tests as the reference it is held to.
//
// Invariants: router-level expansion is derived from a path-keyed RNG, so
// the same AS path always yields the same hop layout — middlebox
// detectability is a stable property of a path rather than a
// per-measurement coin flip. A record with Fail != OK never contributes a
// clause (rule enforcement lives in tomo's grouping).
package traceroute
