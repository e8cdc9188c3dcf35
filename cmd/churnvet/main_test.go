package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixtureDir points run() at one of the lint package's fixture modules,
// so the CLI is exercised over the same corpus as the analyzers.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunList(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	// An exact match also keeps the deleted lockflow and goroutinejoin out.
	want := []string{"nondet", "rngstream", "maporder", "goroutine", "ctxflow", "errflow", "internalimport", "suppress"}
	if !slices.Equal(names, want) {
		t.Errorf("-list analyzers = %v, want %v", names, want)
	}
}

func TestRunFindingsText(t *testing.T) {
	t.Parallel()
	code, out, errw := runCLI(t, "-C", fixtureDir(t, "errflow"), "-only", "errflow")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has findings); stderr: %s", code, errw)
	}
	if !strings.Contains(out, "fixture.go:") || !strings.Contains(out, "[errflow]") {
		t.Errorf("text output missing module-relative findings:\n%s", out)
	}
	if strings.Contains(out, fixtureDir(t, "errflow")) {
		t.Errorf("text output leaks absolute paths:\n%s", out)
	}
}

func TestRunFindingsJSON(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-C", fixtureDir(t, "errflow"), "-only", "errflow", "-format", "json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, f := range findings {
		if f.Analyzer != "errflow" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

// TestRunJSONSuppressed pins that -format json surfaces suppressed
// findings (flagged) while the exit code counts only unsuppressed ones.
func TestRunJSONSuppressed(t *testing.T) {
	t.Parallel()
	code, out, errw := runCLI(t, "-C", fixtureDir(t, "errflowok"), "-only", "errflow", "-format", "json")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (all findings suppressed); stderr: %s", code, errw)
	}
	var findings []struct {
		Suppressed bool `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 suppressed ones:\n%s", len(findings), out)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("finding not flagged suppressed: %+v", f)
		}
	}
}

func TestRunAudit(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-C", fixtureDir(t, "errflowok"), "-audit")
	if code != 0 {
		t.Fatalf("-audit exited %d", code)
	}
	if !strings.Contains(out, "[errflow]") || !strings.Contains(out, "best-effort scratch cleanup") {
		t.Errorf("-audit output missing analyzer or reason:\n%s", out)
	}
	if !strings.Contains(out, "2 suppression(s)") {
		t.Errorf("-audit output missing count:\n%s", out)
	}
}

func TestRunAuditJSON(t *testing.T) {
	t.Parallel()
	code, out, _ := runCLI(t, "-C", fixtureDir(t, "errflowok"), "-audit", "-format", "json")
	if code != 0 {
		t.Fatalf("-audit -format json exited %d", code)
	}
	var sups []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(out), &sups); err != nil {
		t.Fatalf("audit output is not JSON: %v\n%s", err, out)
	}
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2:\n%s", len(sups), out)
	}
	for _, s := range sups {
		if s.Analyzer != "errflow" || s.Reason == "" || s.File == "" || s.Line == 0 {
			t.Errorf("malformed suppression entry: %+v", s)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	t.Parallel()
	if code, _, errw := runCLI(t, "-format", "yaml"); code != 2 || !strings.Contains(errw, "unknown -format") {
		t.Errorf("bad -format: code=%d stderr=%q", code, errw)
	}
	if code, _, errw := runCLI(t, "./cmd/..."); code != 2 || !strings.Contains(errw, "unexpected argument") {
		t.Errorf("bad positional arg: code=%d stderr=%q", code, errw)
	}
	if code, _, _ := runCLI(t, "-bogusflag"); code != 2 {
		t.Errorf("bad flag: code=%d, want 2", code)
	}
	if code, _, errw := runCLI(t, "-C", t.TempDir()); code != 2 || !strings.Contains(errw, "no go.mod") {
		t.Errorf("no module: code=%d stderr=%q", code, errw)
	}
}

// TestCheckAPIGate pins scripts/check-api.sh: the script must keep
// delegating to `churnvet -only internalimport`, and that invocation
// must stay clean over this repository.
func TestCheckAPIGate(t *testing.T) {
	t.Parallel()
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "check-api.sh"))
	if err != nil {
		t.Fatalf("read check-api.sh: %v", err)
	}
	if !strings.Contains(string(script), "churnvet -only internalimport") {
		t.Errorf("check-api.sh no longer delegates to churnvet -only internalimport:\n%s", script)
	}
	code, _, errw := runCLI(t, "-C", filepath.Join("..", ".."), "-only", "internalimport", "./...")
	if code != 0 {
		t.Errorf("API gate invocation exited %d; stderr: %s", code, errw)
	}
}
