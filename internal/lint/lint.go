package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer hit: a position, the analyzer that fired, and
// a message explaining the invariant the site violates.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings silenced by a //churnvet:ok comment.
	// Run drops them; RunAll keeps them for audit-style consumers.
	Suppressed bool
}

// String renders the finding in the conventional file:line:col form,
// with the position relative to dir when possible (keeps CI output
// stable across checkouts).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one registered invariant check, run over the whole loaded
// module so cross-package facts (like RNG stream-constant uniqueness)
// are in scope.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// Analyzers returns the registered suite in its canonical order: the
// determinism and concurrency rules, the context and error rules, the
// public-API boundary, and the suppression validator last.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerNondet,
		analyzerRNGStream,
		analyzerMapOrder,
		analyzerGoroutine,
		analyzerCtxflow,
		analyzerErrflow,
		analyzerInternalImport,
		analyzerSuppress,
	}
}

// ByName resolves one analyzer by its registered name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run executes the named analyzers (all of them when names is empty)
// over the module, applies //churnvet:ok suppressions, and returns the
// surviving findings sorted by position. A waiver whose analyzer ran and
// silenced nothing is reported as a stale suppress finding. Unknown
// analyzer names are an error.
func Run(m *Module, names []string) ([]Finding, error) {
	all, err := RunAll(m, names)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, f := range all {
		if !f.Suppressed {
			findings = append(findings, f)
		}
	}
	return findings, nil
}

// RunAll executes the named analyzers like Run but keeps suppressed
// findings in the result, marked, so audit-style consumers (-format
// json, -audit) can show what the suppressions are holding back.
func RunAll(m *Module, names []string) ([]Finding, error) {
	var selected []*Analyzer
	if len(names) == 0 {
		selected = Analyzers()
	} else {
		for _, name := range names {
			a, ok := ByName(name)
			if !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(analyzerNames(), ", "))
			}
			selected = append(selected, a)
		}
	}
	sups := Suppressions(m)
	used := make([]bool, len(sups))
	ran := map[string]bool{}
	var findings []Finding
	for _, a := range selected {
		ran[a.Name] = true
		for _, f := range a.Run(m) {
			// suppress findings are never silenced: no waiver can
			// name that analyzer.
			for i, s := range sups {
				if s.silences(a.Name, f.Pos) {
					f.Suppressed, used[i] = true, true
				}
			}
			findings = append(findings, f)
		}
	}
	// A waiver is stale only if its analyzer ran: one for an analyzer
	// left out by -only has had no chance to silence anything.
	for i, s := range sups {
		if ran[s.Analyzer] && !used[i] {
			findings = append(findings, Finding{
				Pos:      s.Pos,
				Analyzer: suppressName,
				Message:  "stale suppression: " + s.Analyzer + " reports nothing on this line or the next; delete the waiver",
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

func analyzerNames() []string {
	all := Analyzers()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}
