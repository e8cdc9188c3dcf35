package blockpage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"regexp"
)

// Render produces the blockpage body a censor with the given template ID
// serves. The authority marker is what fingerprints key on.
func Render(id int, country string) []byte {
	// Vary page size by template so the length heuristic sees a spread.
	pad := (id*577 + 211) % 1800
	return fmt.Appendf(nil,
		"<html><head><title>Access Denied</title></head><body>"+
			"<h1>This content is not available in your region.</h1>"+
			"<p>Blocked by order of authority %s-FILTER-%04d.</p>"+
			"<!-- %s --></body></html>",
		country, id, filler(pad))
}

func filler(n int) string {
	const chunk = "filter-notice "
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, chunk...)
	}
	return string(out[:n])
}

// marker prefixes every template's authority marker: template id's is
// marker followed by id in at least four decimal digits (%04d).
var marker = []byte("FILTER-")

// genericPattern is a signature shared by many real-world products. Every
// string it matches begins with "<title>acce" under ASCII case folding:
// none of those letters folds to a rune outside ASCII (the first that
// does is the s of "Access", which also folds to ſ).
var genericPattern = regexp.MustCompile(`(?i)<title>Access Denied</title>.*not available in your region`)

const genericPrefix = "<title>acce"

// FingerprintDB is the corpus of known blockpage signatures: the markers
// of the templates it knows, plus the generic pattern.
type FingerprintDB struct {
	known   []bool // by template ID
	n       int    // signatures
	generic bool
}

// pcgStreamBlock is the fingerprint-corpus RNG stream word ("block" in
// ASCII); stream words are module-unique, enforced by churnvet.
const pcgStreamBlock = 0x626c6f636b // "block"

// NewFingerprintDB builds a corpus covering a fraction of the template IDs
// in [0, numTemplates). Coverage below 1 models censors whose pages the
// public corpora have not catalogued. Deterministic per seed.
func NewFingerprintDB(numTemplates int, coverage float64, seed uint64) *FingerprintDB {
	rng := rand.New(rand.NewPCG(seed, pcgStreamBlock))
	db := &FingerprintDB{known: make([]bool, max(numTemplates, 0)), n: 1, generic: true}
	for id := range db.known {
		if rng.Float64() < coverage {
			db.known[id] = true
			db.n++
		}
	}
	return db
}

// Empty returns a DB with no signatures at all (length heuristic only).
func Empty() *FingerprintDB {
	return &FingerprintDB{}
}

// Knows reports whether template id is in the corpus.
func (db *FingerprintDB) Knows(id int) bool { return id >= 0 && id < len(db.known) && db.known[id] }

// Len returns the number of catalogued signatures.
func (db *FingerprintDB) Len() int { return db.n }

// Match reports whether the body matches any known signature: a known
// template's marker anywhere in it, or the generic pattern.
func (db *FingerprintDB) Match(body []byte) bool {
	for rest := body; ; {
		i := bytes.Index(rest, marker)
		if i < 0 {
			break
		}
		rest = rest[i+len(marker):]
		if db.knowsMarkerID(rest) {
			return true
		}
	}
	return db.generic && hasGenericPrefix(body) && genericPattern.Match(body)
}

// knowsMarkerID reports whether digits, the bytes after a marker, begin
// with the %04d form of a known template ID: its first four digits, or,
// for an ID of 10000 or more, its first five or more without a leading
// zero.
func (db *FingerprintDB) knowsMarkerID(digits []byte) bool {
	id := 0
	for k, c := range digits {
		if c < '0' || c > '9' || k >= 4 && (digits[0] == '0' || id >= len(db.known)) {
			return false
		}
		id = id*10 + int(c-'0')
		if k >= 3 && db.Knows(id) {
			return true
		}
	}
	return false
}

// hasGenericPrefix reports whether body contains genericPrefix once every
// upper-case ASCII letter of body is folded to lower case.
func hasGenericPrefix(body []byte) bool {
	for s := body; ; s = s[1:] {
		i := bytes.IndexByte(s, '<')
		if i < 0 || len(s)-i < len(genericPrefix) {
			return false
		}
		s = s[i:]
		j := 1
		for ; j < len(genericPrefix); j++ {
			c := s[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != genericPrefix[j] {
				break
			}
		}
		if j == len(genericPrefix) {
			return true
		}
	}
}

// LengthDelta implements the Jones et al. heuristic: a response whose
// length differs from the censorship-free baseline by more than the
// threshold fraction (0.30 in the paper's lineage) is a blockpage
// candidate.
func LengthDelta(bodyLen, baselineLen int, threshold float64) bool {
	if bodyLen == baselineLen {
		return false
	}
	max := bodyLen
	if baselineLen > max {
		max = baselineLen
	}
	if max == 0 {
		return false
	}
	diff := bodyLen - baselineLen
	if diff < 0 {
		diff = -diff
	}
	return float64(diff)/float64(max) > threshold
}
