// Package tomo is the paper's primary contribution: boolean network
// tomography over censorship measurements (§3).
//
// Each usable measurement record contributes one clause: the disjunction
// of the ASes on its inferred AS-level path, asserted True when the
// record's anomaly fired and False otherwise (a False clause is the
// conjunction of the negated literals). Clauses are grouped into one CNF
// per (URL, time slice, anomaly kind) — day, week, month and year
// granularities — and solved. A unique model exactly identifies censoring
// ASes; multiple models still eliminate most ASes as definite non-censors;
// no model indicates measurement noise or a policy change inside the slice
// (§3.2's trichotomy). Where the paper runs a SAT solver, Solve reads the
// trichotomy off the CNF's fixed shape in closed form, and CountModels
// counts models up to a cap the same way for Figure 4's no-churn ablation
// (their docs carry the arguments; one helper computes the variable split
// both rest on). Both read an Instance's two lists, not clauses: the ASes
// on the kind's clean paths, numbered first as variables 1..n, and each
// censored path's variables. CNFOf writes an instance's clauses out, and
// internal/sat's search on them is the oracle the tests hold the closed
// forms to.
//
// Construction folds each conclusive record into one cell per (URL, time
// slice), by the path ID its table numbered it with (iclab.NumberPaths):
// the fold hashes no path. For every path it has seen, a cell keeps a
// mask saying, per kind, whether the path was seen censored and whether
// it was seen clean, so one cell serves all five kinds: a kind's CNF is
// read off the masks, with its paths sorted by a rank that orders them
// ASN by ASN (a prefix first). Records arrive grouped by day and URL, so
// the fold interns a URL and looks its parts up once per URL-day, and it
// finds a path within the current part of each granularity through a
// dense array by path ID whose entries carry a stamp; a part is stamped
// afresh whenever it becomes current, so any record order still folds
// correctly. A new part's path list starts a quarter above the length
// of the granularity's current part, since a URL-day sees about as many
// paths as the one before. cell.go holds this core, which the batch and
// incremental builds share.
//
// The records one build or one Incremental folds must come from one
// numbered table: a conclusive record without a path ID panics, and so
// does a path ID that names a different path array than the one the
// build holds for it, which is how records of two tables show. There is
// no second, hashing path for unnumbered records.
//
// Entry points: BuildAndSolve constructs Instances from records and
// streams solving into construction, Solve/SolveAll classify instances
// into Outcomes, CountModels counts an instance's models up to a cap, and
// IdentifyCensors folds unique-solution outcomes into the named-censor
// map. NewIncremental is the streaming counterpart: day
// batches enter via AddDay, retract via RemoveDay, and
// Incremental.BuildAndSolveCtx re-solves only the CNFs a batch touched,
// serving the rest from the previous call's outcomes. It keeps its live
// cells in output order between calls, sorting only the cells created
// since the last call and merging them in (URL ranks never reorder URLs
// already ranked), and drops the cells RemoveDay emptied. Build constructs
// the same Instances without solving them and is the only entry point
// that sets Instance.CNF, to CNFOf's clauses, for callers that count or
// search them; the instances of BuildAndSolve and Incremental carry none.
//
// Invariants: construction is a commutative fold (path masks OR, record
// counts add), so record order never changes a CNF, and output order is
// fixed (URL, granularity, slice index, anomaly kind) at every worker
// count. A CNF exists only for a kind its cell saw censored. The cell
// build is held to the string-keyed grouping it replaced, kept in the
// tests as referenceBuild, which keys paths by value, so a numbering fault
// shows as a mismatch (FuzzBuildMatchesReference). The incremental
// engine's results are field-for-field identical to the batch engine's
// over the same resident records — the streaming determinism guarantee,
// pinned by TestIncrementalMatchesBatch and FuzzIncrementalVsBatch. The
// tomography never reads ground-truth record fields.
package tomo
