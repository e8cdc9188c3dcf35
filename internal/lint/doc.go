// Package lint is churnvet: the project's custom static-analysis suite.
// It enforces, at `make lint` time, the invariants every result in this
// reproduction stakes its claims on — same seed → same output, parallel
// == serial, streaming == batch, replay == direct run — so a regression
// surfaces as a file:line finding instead of a flaky golden-test diff
// that has to be bisected after the fact.
//
// The suite is stdlib-only (go/parser, go/ast, go/types with the source
// importer); go.mod stays dependency-free. Load discovers and
// type-checks every non-test package in the module, and Run executes the
// registered analyzers over the loaded module:
//
//	nondet         no wall-clock, environment, or global-RNG reads in
//	               deterministic packages (the root package and all of
//	               internal/...); cmd/, examples/ and _test.go files are
//	               exempt
//	rngstream      every rand.NewPCG(seed, K) names its K stream via a
//	               hex constant, and K values are unique across the
//	               module so generators can never silently correlate
//	maporder       no map iteration whose body appends to a slice,
//	               writes to an encoder, or emits events unless the
//	               collected output is sorted afterwards
//	goroutine      `go` statements only in internal/parallel, so all
//	               production concurrency keeps the pool's cancellation
//	               and panic-recovery semantics
//	ctxflow        in deterministic packages, no context parameter
//	               discarded or left unused, and no fresh
//	               context.Background/TODO root outside the nil-ctx
//	               guard and ctx-free *Ctx wrappers
//	errflow        no discarded error results in deterministic
//	               packages, no ==/!= between errors, and fmt.Errorf
//	               wraps an embedded error with %w
//	internalimport examples must not import churntomo/internal (even
//	               aliased), and the root package's exported surface
//	               must not leak internal named types except through
//	               exported aliases
//	suppress       `//churnvet:ok` suppression comments are themselves
//	               well-formed: known analyzer name, `--` separator,
//	               non-empty reason; and none is stale
//
// A finding is silenced by a narrow suppression comment on the flagged
// line (end-of-line) or on the line directly above it:
//
//	//churnvet:ok maporder -- keys feed a map, order never escapes
//
// Malformed suppressions (unknown analyzer, missing `-- reason`) are
// findings in their own right, reported by the suppress pseudo-analyzer
// and not themselves suppressible. So are stale ones: a well-formed
// waiver whose analyzer ran and silenced nothing on its line or the
// next. A waiver for an analyzer left out by -only is not judged.
//
// cmd/churnvet is the command-line driver; `make lint` wires it into
// `make ci`. Each analyzer is pinned by fixture packages under
// testdata/src with // want "regexp" expectation comments, one firing
// and one suppressed case per analyzer.
package lint
