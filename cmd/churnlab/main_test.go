package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"churntomo"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// The goldens under testdata/ were recorded from the churnlab that still
// printed from the internal pipeline artifacts, before any printer read
// Result. They pin every byte the printers emit; never regenerate them to
// make a printer change pass.
var goldens = []struct {
	name string
	args []string
}{
	{"batch_small_seed7", []string{"-scale", "small", "-seed", "7"}},
	{"stream_small_seed7_w14", []string{"-scale", "small", "-seed", "7", "-stream", "-window", "14"}},
	{"eval_small_seed7", []string{"-scale", "small", "-seed", "7", "-eval"}},
	{"national_firewall_seed3", []string{"-scale", "small", "-seed", "3", "-scenario", "national-firewall"}},
	{"transit_leakage_seed2_eval", []string{"-scale", "small", "-seed", "2", "-scenario", "transit-leakage", "-eval"}},
	{"only_seed5", []string{"-scale", "small", "-seed", "5", "-only", "table2,table3,figure5,figure1b"}},
	{"matrix3_seed4", []string{"-scale", "small", "-seed", "4", "-matrix", "3"}},
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs in -short mode")
	}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			code, out, errw := runCLI(t, append([]string{"-quiet"}, g.args...)...)
			if code != 0 {
				t.Fatalf("exit %d; stderr: %s", code, errw)
			}
			if want := readGolden(t, g.name); out != want {
				t.Errorf("stdout differs from testdata/%s.golden:\n%s", g.name, lineDiff(want, out))
			}
		})
	}
}

// lineDiff reports the first differing line of two outputs.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
	return "(identical lines)"
}

func TestFlagConflicts(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name     string
		explicit map[string]bool
		matrix   int
		stream   bool
		only     string
		input    string
		eval     bool
		want     []string // substrings of expected conflict messages; empty = none
	}{
		{name: "defaults", explicit: set(), matrix: 1},
		{name: "stream alone", explicit: set("stream"), matrix: 1, stream: true},
		{name: "matrix alone", explicit: set("matrix"), matrix: 4},
		{name: "stream with window/stride", explicit: set("stream", "window", "stride"), matrix: 1, stream: true},
		{
			name: "stream and matrix", explicit: set("stream", "matrix"), matrix: 4, stream: true,
			want: []string{"mutually exclusive"},
		},
		{
			name: "window without stream", explicit: set("window"), matrix: 1,
			want: []string{"-window/-stride require -stream"},
		},
		{
			name: "stride without stream", explicit: set("stride"), matrix: 1,
			want: []string{"-window/-stride require -stream"},
		},
		{
			name: "matrix zero", explicit: set("matrix"), matrix: 0,
			want: []string{"must be >= 1"},
		},
		{
			name: "only in matrix mode", explicit: set("matrix", "only"), matrix: 3, only: "table1",
			want: []string{"-only", "-matrix"},
		},
		{
			name: "only in stream mode", explicit: set("stream", "only"), matrix: 1, stream: true, only: "table1",
			want: []string{"-only", "-stream"},
		},
		{
			name: "explicit validate in matrix mode", explicit: set("matrix", "validate"), matrix: 3,
			want: []string{"-validate", "-matrix"},
		},
		{
			// -validate defaults to true; only a user-supplied value conflicts.
			name: "default validate in matrix mode", explicit: set("matrix"), matrix: 3,
		},
		{name: "input alone", explicit: set("input"), matrix: 1, input: "ds.jsonl.gz"},
		{
			// Replaying a recorded dataset through the streaming engine is
			// the supported workflow, not a conflict.
			name: "input with stream", explicit: set("input", "stream", "window"), matrix: 1,
			stream: true, input: "ds.jsonl.gz",
		},
		{
			name: "input with seed", explicit: set("input", "seed"), matrix: 1, input: "ds.jsonl.gz",
			want: []string{"-seed", "-input"},
		},
		{
			name: "input with scale and scenario", explicit: set("input", "scale", "scenario"), matrix: 1, input: "ds.jsonl.gz",
			want: []string{"-scale", "-scenario", "-input"},
		},
		{
			name: "input with matrix", explicit: set("input", "matrix"), matrix: 4, input: "ds.jsonl.gz",
			want: []string{"-matrix", "same file every cell"},
		},
		{name: "eval alone", explicit: set("eval"), matrix: 1, eval: true},
		{
			// Streaming evaluation adds the convergence-day report.
			name: "eval with stream", explicit: set("eval", "stream"), matrix: 1, stream: true, eval: true,
		},
		{
			// Replayed datasets that kept their registry are gradable; the
			// metadata-only case fails at runtime, not at flag parse.
			name: "eval with input", explicit: set("eval", "input"), matrix: 1, input: "ds.jsonl.gz", eval: true,
		},
		{
			name: "eval with matrix", explicit: set("eval", "matrix"), matrix: 4, eval: true,
			want: []string{"-eval", "-matrix"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := flagConflicts(tc.explicit, tc.matrix, tc.stream, tc.only, tc.input, tc.eval)
			if len(tc.want) == 0 {
				if len(got) > 0 {
					t.Fatalf("unexpected conflicts: %v", got)
				}
				return
			}
			joined := strings.Join(got, "\n")
			for _, w := range tc.want {
				if !strings.Contains(joined, w) {
					t.Errorf("conflicts %q missing %q", joined, w)
				}
			}
		})
	}
}

// TestReplayWithoutGroundTruth replays small seed 7 from a file that lists
// no true censors and carries no per-record truth. The run cannot be
// graded: the report is the direct run's minus the validation block, and
// -eval fails.
func TestReplayWithoutGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs in -short mode")
	}
	cfg := churntomo.SmallConfig()
	cfg.Seed = 7
	ds, err := (&churntomo.ScenarioSource{}).Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.Info.TruthCensors = nil
	for _, day := range ds.Days {
		for i := range day {
			day[i].TruePath, day[i].TrueActs = nil, nil
		}
	}
	path := filepath.Join(t.TempDir(), "notruth.jsonl.gz")
	if err := ds.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	code, out, errw := runCLI(t, "-quiet", "-input", path)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw)
	}
	golden := readGolden(t, "batch_small_seed7")
	cut := strings.Index(golden, "== Ground-truth validation")
	if cut < 0 {
		t.Fatal("batch golden has no validation block")
	}
	if want := golden[:cut]; out != want {
		t.Errorf("replay without ground truth should print the direct run's report minus the validation block:\n%s",
			lineDiff(want, out))
	}

	code, _, errw = runCLI(t, "-quiet", "-input", path, "-eval")
	if code != 1 || !strings.Contains(errw, "carries no ground truth") {
		t.Errorf("-eval on a replay without ground truth: exit %d, stderr %q; want exit 1 and the no-ground-truth error", code, errw)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "bogus"},
		{"-no-such-flag"},
		{"-eval", "-matrix", "2"},
		{"-input", "ds.jsonl.gz", "-seed", "3"},
	} {
		if code, out, _ := runCLI(t, args...); code != 2 || out != "" {
			t.Errorf("churnlab %v: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
	}
	if code, _, _ := runCLI(t, "-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}

func TestFigure1aDropsYear(t *testing.T) {
	rows := []churntomo.ClassCounts{
		{Group: "day", CNFs: 3, Unique: 3},
		{Group: "month", CNFs: 2, Unsat: 2},
		{Group: "year", CNFs: 1, Multiple: 1},
	}
	got := figure1a(rows)
	if len(got) != 2 || got[0].Group != "day" || got[1].Group != "month" {
		t.Errorf("figure1a(%v) = %v, want day and month only", rows, got)
	}
}

func TestFigure2(t *testing.T) {
	if d := figure2(nil); d.samples != 0 || d.cdf != nil || d.mean != 0 || d.noElimFrac != 0 {
		t.Errorf("empty Figure 2: %+v", d)
	}
	d := figure2([]float64{0, 0.5, 1})
	if d.samples != 3 || d.mean != 0.5 {
		t.Errorf("samples %d, mean %v; want 3 and 0.5", d.samples, d.mean)
	}
	if d.noElimFrac != 1.0/3 {
		t.Errorf("no-elimination fraction %v, want 1/3 (one CNF eliminated nothing)", d.noElimFrac)
	}
	if len(d.cdf) != 11 || d.cdf[0].Y != 1.0/3 || d.cdf[5].Y != 2.0/3 || d.cdf[10].Y != 1 {
		t.Errorf("CDF %+v, want 1/3 at 0%%, 2/3 at 50%%, 1 at 100%%", d.cdf)
	}
}

func TestTable2(t *testing.T) {
	var none churntomo.AnomalySet
	dns, ttl := none.Add(churntomo.AnomalyDNS), none.Add(churntomo.AnomalyTTL)
	rest := ttl.Add(churntomo.AnomalyRST).Add(churntomo.AnomalySEQ).Add(churntomo.AnomalyBlock)
	// Sorted by ASN, as Result.Censors is.
	censors := []churntomo.Censor{
		{ASN: 1, Country: "GB", CountryName: "United Kingdom", Kinds: ttl},
		{ASN: 2, Country: "CN", CountryName: "China", Kinds: dns},
		{ASN: 3, Kinds: dns}, // not in the topology
		{ASN: 4, Country: "CN", CountryName: "China", Kinds: rest},
		{ASN: 5, Country: "XX", Kinds: ttl}, // a code with no display name
		{ASN: 6, Country: "AE", CountryName: "United Arab Emirates", Kinds: ttl},
		{ASN: 7, Country: "GB", CountryName: "United Kingdom", Kinds: dns},
		{ASN: 8, Country: "CN", CountryName: "China", Kinds: ttl},
	}
	got := table2(censors, 4)
	want := [][]string{
		{"China", "AS2, AS4, AS8", "All"},
		{"United Kingdom", "AS1, AS7", "dns, ttl"},
		{"??", "AS3", "dns"}, // ties break by country code: "??" < "AE" < "XX"
		{"United Arab Emirates", "AS6", "ttl"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("table2 top 4 = %q, want %q", got, want)
	}
	if got := table2(censors, 8); len(got) != 5 || got[4][0] != "XX" {
		t.Errorf("a code without a display name should print the code: %q", got)
	}
	if got := censorCountries(censors); got != 4 {
		t.Errorf("censorCountries = %d, want 4 (an AS outside the topology has no country)", got)
	}
}

func TestValidationNeedsGroundTruth(t *testing.T) {
	var out strings.Builder
	printValidation(&out, &churntomo.Result{Censors: []churntomo.Censor{{ASN: 1, CNFs: 9}}})
	if out.Len() != 0 {
		t.Errorf("a result without an Evaluation printed a validation block:\n%s", out.String())
	}
	res := &churntomo.Result{
		Censors: []churntomo.Censor{{ASN: 1, CNFs: 9, TrueCensor: true}, {ASN: 2, CNFs: 4}},
		Evaluation: &churntomo.Evaluation{
			TP: 1, FP: 1, Precision: 0.5, Recall: 0.25, FalsePositives: []churntomo.ASN{2},
		},
	}
	printValidation(&out, res)
	want := "== Ground-truth validation (not possible in the paper) ==\n" +
		"identified: 1 true censors, 1 spurious; precision 50.0%, registry recall 25.0%\n" +
		"spurious: AS2(4 cnfs)\n" +
		"true censor AS1 corroborated by 9 CNFs\n\n"
	if out.String() != want {
		t.Errorf("validation block:\n%s\nwant:\n%s", out.String(), want)
	}
}
