package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixtureModule loads one fixture module under testdata/src. Every
// fixture is a self-contained module with its own go.mod, loaded through
// exactly the code path the churnvet driver uses.
func fixtureModule(t *testing.T, name string) *Module {
	t.Helper()
	m, err := Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return m
}

// A want is one expectation comment: a finding with a message matching
// re must be reported on (file, line). The syntax is the conventional
//
//	code // want "regexp"
//
// with multiple quoted regexps allowed after one want marker, and block
// comments (/* want "..." */) accepted for lines whose trailing comment
// position is already taken by the directive under test.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants scans every comment in the fixture for want expectations.
func collectWants(t *testing.T, m *Module) []*want {
	t.Helper()
	var wants []*want
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, `want "`)
					if idx < 0 {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					for _, q := range wantQuoted.FindAllString(c.Text[idx:], -1) {
						raw, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}

// testFixture runs the named analyzers over a fixture and checks the
// findings against its want comments: every finding must match an
// expectation on its own line, and every expectation must be consumed.
func testFixture(t *testing.T, fixture string, analyzers ...string) {
	t.Helper()
	m := fixtureModule(t, fixture)
	findings, err := Run(m, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wants := collectWants(t, m)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

// testFixtureSuppressed runs the named analyzers over a fixture whose
// violations are all suppressed: Run must report nothing, and RunAll
// must surface exactly wantSuppressed findings flagged Suppressed.
func testFixtureSuppressed(t *testing.T, fixture string, wantSuppressed int, analyzers ...string) {
	t.Helper()
	m := fixtureModule(t, fixture)
	findings, err := Run(m, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("suppressed fixture %s still reports: %s", fixture, f)
	}
	all, err := RunAll(m, analyzers)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	suppressed := 0
	for _, f := range all {
		if f.Suppressed {
			suppressed++
		}
	}
	if suppressed != wantSuppressed {
		t.Errorf("RunAll(%s) marked %d findings suppressed, want %d", fixture, suppressed, wantSuppressed)
	}
}

func TestNondet(t *testing.T) {
	t.Parallel()
	testFixture(t, "nondet", "nondet")
}

func TestRNGStream(t *testing.T) {
	t.Parallel()
	testFixture(t, "rngstream", "rngstream")
}

func TestMapOrder(t *testing.T) {
	t.Parallel()
	testFixture(t, "maporder", "maporder")
}

func TestGoroutine(t *testing.T) {
	t.Parallel()
	testFixture(t, "goroutine", "goroutine")
}

func TestCtxflow(t *testing.T) {
	t.Parallel()
	testFixture(t, "ctxflow", "ctxflow")
}

func TestCtxflowSuppressed(t *testing.T) {
	t.Parallel()
	testFixtureSuppressed(t, "ctxflowok", 2, "ctxflow")
}

func TestErrflow(t *testing.T) {
	t.Parallel()
	testFixture(t, "errflow", "errflow")
}

func TestErrflowSuppressed(t *testing.T) {
	t.Parallel()
	testFixtureSuppressed(t, "errflowok", 2, "errflow")
}

func TestInternalImport(t *testing.T) {
	t.Parallel()
	testFixture(t, "internalimport", "internalimport")
}

// TestSuppressDirectives runs nondet beside suppress, so the fixture's
// nondet waiver is judged stale while its maporder waiver, for an
// analyzer left out of the run, is not.
func TestSuppressDirectives(t *testing.T) {
	t.Parallel()
	testFixture(t, "suppressbad", "suppress", "nondet")
}

// TestRepoClean pins the acceptance criterion that the full suite runs
// clean over this repository: any new violation (or stale suppression)
// fails the build here, not just in make lint.
func TestRepoClean(t *testing.T) {
	t.Parallel()
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Load repo: %v", err)
	}
	findings, err := Run(m, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("repo is not lint-clean: %s", f)
	}
}

// TestRegistry pins the analyzer registry's invariants, including the
// promise in suppress.go that suppressibleList (kept static to avoid an
// initialization cycle) stays in sync with Analyzers().
func TestRegistry(t *testing.T) {
	t.Parallel()
	var names []string
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
		names = append(names, a.Name)
	}
	var wantSuppressible []string
	for _, n := range names {
		if n != suppressName {
			wantSuppressible = append(wantSuppressible, n)
		}
	}
	if !slices.Equal(suppressibleList, wantSuppressible) {
		t.Errorf("suppressibleList = %v, want %v (every analyzer except %q)", suppressibleList, wantSuppressible, suppressName)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should not resolve")
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	t.Parallel()
	m := fixtureModule(t, "suppressbad")
	if _, err := Run(m, []string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Errorf("Run with unknown analyzer: got %v, want unknown-analyzer error", err)
	}
}

func TestLoadErrors(t *testing.T) {
	t.Parallel()
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load without go.mod should fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("go 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "module directive") {
		t.Errorf("Load without module directive: got %v", err)
	}
	if _, err := Load(filepath.Join("testdata", "src", "badcycle")); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("Load(badcycle): got %v, want import-cycle error", err)
	}
	if _, err := Load(filepath.Join("testdata", "src", "badtype")); err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("Load(badtype): got %v, want type-check error", err)
	}
}

// TestFindingString pins the conventional file:line:col rendering the
// driver prints.
func TestFindingString(t *testing.T) {
	t.Parallel()
	f := Finding{Analyzer: "nondet", Message: "boom"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "x.go", 3, 7
	if got, want := f.String(), "x.go:3:7: [nondet] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
