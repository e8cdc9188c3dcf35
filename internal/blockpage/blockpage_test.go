package blockpage

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"testing"
)

func TestRenderVariesByID(t *testing.T) {
	a := Render(1, "CN")
	b := Render(2, "CN")
	if bytes.Equal(a, b) {
		t.Error("different templates render identically")
	}
	if !bytes.Contains(a, []byte("Access Denied")) {
		t.Error("blockpage missing title")
	}
	if !bytes.Contains(a, []byte("CN-FILTER-0001")) {
		t.Errorf("marker missing: %s", a)
	}
	// Deterministic.
	if !bytes.Equal(a, Render(1, "CN")) {
		t.Error("Render not deterministic")
	}
}

func TestFingerprintDBCoverage(t *testing.T) {
	db := NewFingerprintDB(100, 0.8, 1)
	known := 0
	for id := 0; id < 100; id++ {
		if db.Knows(id) {
			known++
		}
	}
	if known < 60 || known > 95 {
		t.Errorf("coverage %d/100 far from configured 0.8", known)
	}
	full := NewFingerprintDB(50, 1.0, 2)
	for id := 0; id < 50; id++ {
		if !full.Knows(id) {
			t.Errorf("full-coverage DB missing id %d", id)
		}
		if !full.Match(Render(id, "XX")) {
			t.Errorf("full DB failed to match template %d", id)
		}
	}
}

func TestGenericPatternCatchesUnknownTemplates(t *testing.T) {
	db := NewFingerprintDB(10, 0.0, 3) // no specific signatures
	if db.Len() != 1 {
		t.Fatalf("expected only the generic pattern, got %d", db.Len())
	}
	if !db.Match(Render(999, "ZZ")) {
		t.Error("generic pattern should match our standard template shape")
	}
	if db.Match([]byte("<html><body>hello world</body></html>")) {
		t.Error("generic pattern matched an innocent page")
	}
}

func TestEmptyDB(t *testing.T) {
	db := Empty()
	if db.Match(Render(1, "CN")) {
		t.Error("empty DB matched")
	}
	if db.Knows(1) || db.Len() != 0 {
		t.Error("empty DB knows things")
	}
}

func TestLengthDelta(t *testing.T) {
	cases := []struct {
		body, baseline int
		want           bool
	}{
		{1000, 1000, false},
		{1000, 1100, false}, // 9% - dynamic content territory
		{1000, 1400, false}, // 28.6%
		{500, 10000, true},  // classic tiny blockpage
		{10000, 500, true},  // or a huge interstitial
		{1000, 1500, true},  // 33%
		{0, 0, false},       // degenerate
		{0, 100, true},      // empty body vs real baseline
	}
	for _, c := range cases {
		if got := LengthDelta(c.body, c.baseline, 0.30); got != c.want {
			t.Errorf("LengthDelta(%d,%d) = %v, want %v", c.body, c.baseline, got, c.want)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	a := NewFingerprintDB(40, 0.5, 7)
	b := NewFingerprintDB(40, 0.5, 7)
	for id := 0; id < 40; id++ {
		if a.Knows(id) != b.Knows(id) {
			t.Fatalf("nondeterministic coverage at id %d", id)
		}
	}
}

// referenceDB is the matcher Match replaced: one regexp per known
// template's marker, plus the generic pattern.
type referenceDB []*regexp.Regexp

func newReferenceDB(db *FingerprintDB) referenceDB {
	var ref referenceDB
	for id := range db.known {
		if db.Knows(id) {
			ref = append(ref, regexp.MustCompile(fmt.Sprintf(`FILTER-%04d`, id)))
		}
	}
	if db.generic {
		ref = append(ref, regexp.MustCompile(`(?i)<title>Access Denied</title>.*not available in your region`))
	}
	return ref
}

func (ref referenceDB) match(body []byte) bool {
	for _, p := range ref {
		if p.Match(body) {
			return true
		}
	}
	return false
}

// FuzzFingerprintMatch checks Match against the per-pattern regexps it
// replaced, on four corpora: half of 120 templates, a sparse one that
// knows IDs of five digits, all of 12, and the empty DB. The first byte
// picks the corpus; the rest is the body. The seeds cover the generic
// pattern's Unicode folds (\u017f matches s, the Kelvin sign matches nothing
// in it), a newline that . must not cross, invalid UTF-8, overlapping and
// repeated markers, five-digit runs and leading zeros, and pages with
// suffixes that extend a marker's digits or complete a marker.
//
// It also checks the property measurement's fixed-page verdicts rely on:
// Match(page+suffix) is true whenever Match(page) is. So when the body
// does not match, no prefix of it may: every prefix of a body up to
// 2,048 bytes is tried, and 256 evenly spaced ones of a longer body.
func FuzzFingerprintMatch(f *testing.F) {
	dbs := []*FingerprintDB{
		NewFingerprintDB(120, 0.5, 1),
		NewFingerprintDB(10200, 0.02, 3),
		NewFingerprintDB(12, 1, 4),
		Empty(),
	}
	if !slices.Contains(dbs[1].known[10000:], true) {
		f.Fatal("the sparse corpus knows no five-digit template ID")
	}
	refs := make([]referenceDB, len(dbs))
	for i, db := range dbs {
		refs[i] = newReferenceDB(db)
		if len(refs[i]) != db.Len() {
			f.Fatalf("corpus %d: Len %d, %d reference patterns", i, db.Len(), len(refs[i]))
		}
	}
	fivedigit := 10000 + slices.Index(dbs[1].known[10000:], true)
	seeds := []string{
		string(Render(3, "CN")),
		string(Render(77, "IR")),
		string(Render(fivedigit, "RU")),
		"<title>Acce\u017fs Denied</title> - not available in your region",
		"<TITLE>ACCE\u017f\u017f DENIED</TITLE>NOT AVAILABLE IN YOUR REGION",
		"<title>Access Denied</title>\u212a not available in your region",
		"<title>\u212access Denied</title> not available in your region",
		"<tItLe>aCcEsS dEnIeD</TiTlE> not available in your region",
		"<title>Access Denied</title>\nnot available in your region",
		"<title>Access Denied</title>\xff\xfe not available in your region",
		"<title>Access Denied</title><title>Access Denied</title> not available in your regio",
		"FILTER-FILTER-0012",
		"FILTER-FILTER-FILTER-0003 FILTER-",
		"FILTER-001",
		"FILTER-0007",
		"FILTER-00007",
		"FILTER-0001234",
		fmt.Sprintf("FILTER-%d", fivedigit),
		fmt.Sprintf("FILTER-%d9", fivedigit),
		fmt.Sprintf("FILTER-0%d", fivedigit),
		"FILTER-99999999999999999999",
		"filter-0003 Filter-0004 FILTER-0a03",
		"",
		string(Render(3, "CN")) + "FILTER-12 <title>",
		string(Render(77, "IR")) + "7",
		"FILTER-0003" + "1",
		fmt.Sprintf("FILTER-%d", fivedigit) + "42",
		"FILT" + "ER-0003",
		"<title>Access Denied</title> not available in your regi" + "on",
	}
	for _, s := range seeds {
		for i := range dbs {
			f.Add(byte(i), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		i := int(which) % len(dbs)
		if got, want := dbs[i].Match(body), refs[i].match(body); got != want {
			t.Fatalf("corpus %d: Match(%q) = %v, the per-pattern regexps say %v", i, body, got, want)
		}
		if dbs[i].Match(body) {
			return
		}
		step := max(1, len(body)/256)
		if len(body) <= 2048 {
			step = 1
		}
		for k := 0; k < len(body); k += step {
			if dbs[i].Match(body[:k]) {
				t.Fatalf("corpus %d: Match(%q) is true, but adding %q makes it false", i, body[:k], body[k:])
			}
		}
	})
}
