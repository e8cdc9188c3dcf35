package lint

import (
	"go/ast"
	"strings"
)

// analyzerGoroutine confines `go` statements to the sanctioned
// concurrency packages. internal/parallel owns cancellation, draining,
// and panic recovery (a worker panic is re-raised on the caller, never a
// process crash from an anonymous goroutine); a raw `go` anywhere else
// in production code escapes those semantics and, worse, is exactly
// where ordering nondeterminism creeps in. Tests are never loaded, so
// test helpers may still launch goroutines freely.
var analyzerGoroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "`go` statements only in sanctioned concurrency packages",
	Run:  runGoroutine,
}

// sanctionedGoroutines names the packages allowed to use raw `go`
// statements, each with the reason its concurrency is considered owned
// rather than escaped. Extending this map is a reviewed decision: the
// new package must join, cancel, and recover its goroutines itself.
var sanctionedGoroutines = map[string]string{
	"internal/parallel": "the worker pool: owns cancellation, draining, and panic re-raise for the whole module",
}

func runGoroutine(m *Module) []Finding {
	var findings []Finding
	for _, p := range m.Pkgs {
		if _, ok := sanctionedGoroutines[strings.TrimPrefix(p.Path, m.Path+"/")]; ok {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					findings = append(findings, Finding{
						Pos:      m.Fset.Position(g.Pos()),
						Analyzer: "goroutine",
						Message:  "`go` statement outside the sanctioned concurrency packages; route concurrency through the pool (parallel.ForEachCtx) so cancellation and panic recovery hold",
					})
				}
				return true
			})
		}
	}
	return findings
}
