package lint

import (
	"go/token"
	"sort"
	"strings"
)

const suppressName = "suppress"

// analyzerSuppress validates the suppression comments themselves: a
// comment that invokes the churnvet: namespace but is malformed —
// unknown directive, unknown analyzer name, missing `--` separator or
// empty reason — is a finding, so a typo can never silently disable a
// real check. RunAll adds the stale rule under the same name: a
// well-formed waiver whose analyzer ran and silenced nothing. These
// findings are not suppressible.
var analyzerSuppress = &Analyzer{
	Name: suppressName,
	Doc:  "malformed or stale //churnvet:ok suppression comments are findings",
	Run: func(m *Module) []Finding {
		var findings []Finding
		forEachDirective(m, func(pos token.Position, text string) {
			if _, _, msg := parseSuppression(text); msg != "" {
				findings = append(findings, Finding{Pos: pos, Analyzer: suppressName, Message: msg})
			}
		})
		return findings
	},
}

// Suppression is one well-formed //churnvet:ok comment: the analyzer it
// silences, the written justification, and where it sits. It silences
// findings of exactly that analyzer on the comment's own line (the
// end-of-line form) or the line directly below it (the standalone form).
type Suppression struct {
	Analyzer string
	Reason   string
	Pos      token.Position
}

func (s Suppression) silences(analyzer string, pos token.Position) bool {
	return s.Analyzer == analyzer && s.Pos.Filename == pos.Filename &&
		(s.Pos.Line == pos.Line || s.Pos.Line == pos.Line-1)
}

// Suppressions lists every well-formed suppression in the module,
// sorted by position, so the suppression inventory stays reviewable
// instead of accumulating silently. Malformed ones are left out; the
// suppress analyzer reports them instead.
func Suppressions(m *Module) []Suppression {
	var sups []Suppression
	forEachDirective(m, func(pos token.Position, text string) {
		if analyzer, reason, msg := parseSuppression(text); msg == "" {
			sups = append(sups, Suppression{Analyzer: analyzer, Reason: reason, Pos: pos})
		}
	})
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return sups
}

// forEachDirective invokes fn for every //churnvet:* comment in the
// module with the comment's position and its text after `//`.
func forEachDirective(m *Module, fn func(pos token.Position, text string)) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					trimmed := strings.TrimSpace(text)
					if !strings.HasPrefix(trimmed, "churnvet:") {
						continue
					}
					fn(m.Fset.Position(c.Pos()), trimmed)
				}
			}
		}
	}
}

// parseSuppression parses `churnvet:ok <analyzer> -- <reason>` and
// returns the analyzer name and trimmed reason, or a non-empty problem
// description when the comment is malformed.
func parseSuppression(text string) (analyzer, reason, problem string) {
	rest, ok := strings.CutPrefix(text, "churnvet:ok")
	if !ok {
		directive := strings.Fields(text)[0]
		return "", "", "unknown churnvet directive " + quote(directive) + " (only //churnvet:ok is recognized)"
	}
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		// e.g. churnvet:okay...
		directive := strings.Fields(text)[0]
		return "", "", "unknown churnvet directive " + quote(directive) + " (only //churnvet:ok is recognized)"
	}
	body, rawReason, found := strings.Cut(rest, "--")
	name := strings.TrimSpace(body)
	if name == "" {
		return "", "", "suppression names no analyzer (want //churnvet:ok <analyzer> -- <reason>)"
	}
	if len(strings.Fields(name)) != 1 {
		return "", "", "suppression must name exactly one analyzer, got " + quote(name)
	}
	if !suppressible(name) {
		return "", "", "suppression names unknown analyzer " + quote(name) + " (have " + strings.Join(suppressibleNames(), ", ") + ")"
	}
	if !found {
		return "", "", "suppression for " + name + " is missing the `-- <reason>` clause"
	}
	reason = strings.TrimSpace(rawReason)
	if reason == "" {
		return "", "", "suppression for " + name + " has an empty reason (a written justification is required)"
	}
	return name, reason, ""
}

// suppressibleList names the analyzers whose findings may be silenced
// with //churnvet:ok; the suppress analyzer itself deliberately is not.
// Kept as a static list (rather than derived from Analyzers) to avoid an
// initialization cycle; TestRegistry pins the two in sync.
var suppressibleList = []string{
	"nondet", "rngstream", "maporder", "goroutine",
	"ctxflow", "errflow", "internalimport",
}

func suppressible(name string) bool {
	for _, n := range suppressibleList {
		if n == name {
			return true
		}
	}
	return false
}

func suppressibleNames() []string { return suppressibleList }

func quote(s string) string { return "\"" + s + "\"" }
