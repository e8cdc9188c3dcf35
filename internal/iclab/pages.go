package iclab

import (
	"bytes"

	"churntomo/internal/blockpage"
	"churntomo/internal/detect"
)

// pageVerdicts holds the fingerprint DB's Match on every fixed page a test
// can deliver: each target's censor-free page and each rendered
// blockpage. RunByDayCtx takes them once, before the first day, and the
// days only read them.
type pageVerdicts struct {
	db      *blockpage.FingerprintDB
	targets []bool           // by target index
	blocks  map[pageKey]bool // by rendered blockpage
}

// verdicts matches every fixed page of s against s.Fingerprints. A nil
// DB matches nothing.
func (s *Scenario) verdicts() *pageVerdicts {
	v := &pageVerdicts{
		db:      s.Fingerprints,
		targets: make([]bool, len(s.Targets)),
		blocks:  make(map[pageKey]bool, len(s.blockpages)),
	}
	if v.db == nil {
		return v
	}
	for i := range s.Targets {
		v.targets[i] = v.db.Match(s.Targets[i].Body)
	}
	for k, page := range s.blockpages {
		v.blocks[k] = v.db.Match(page)
	}
	return v
}

// fixedPage is one page a test may deliver, with the DB's verdict on it.
type fixedPage struct {
	body  []byte
	match bool
}

// blockpage answers detect.Blockpage(body, baselineLen, v.db) for a body
// a test delivered with pages as its candidates: the target's page and
// the pages of the test's Block injectors. The length heuristic runs
// live; the DB's match follows one rule (see matches).
func (v *pageVerdicts) blockpage(body []byte, baselineLen int, pages []fixedPage) bool {
	if len(body) == 0 {
		return false
	}
	if v.db != nil && v.matches(body, pages) {
		return true
	}
	return blockpage.LengthDelta(len(body), baselineLen, detect.LengthThreshold)
}

// matches is v.db.Match(body), read off the candidate pages where it can
// be. A body equal to a non-empty page byte for byte takes that page's
// verdict. A body that begins with a page the DB matches is matched too:
// a marker or generic match inside the page is still inside the body
// (FuzzFingerprintMatch checks that a suffix never undoes a match). Any
// other body is scanned.
func (v *pageVerdicts) matches(body []byte, pages []fixedPage) bool {
	for _, p := range pages {
		if len(p.body) > 0 && bytes.Equal(body, p.body) {
			return p.match
		}
	}
	for _, p := range pages {
		if p.match && bytes.HasPrefix(body, p.body) {
			return true
		}
	}
	return v.db.Match(body)
}
