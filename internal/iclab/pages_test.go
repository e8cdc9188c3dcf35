package iclab

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"churntomo/internal/blockpage"
	"churntomo/internal/detect"
)

// TestFixedPageVerdicts checks the fixed-page rule against the detector
// it stands in for: for every target page and rendered blockpage of a
// small world, the rule's answer on bodies made from the page must be
// exactly detect.Blockpage's, under the world's DB and under an empty
// one. The bodies are the page itself, the page with random suffixes
// (some carrying a known marker or the generic title), truncations,
// one-byte edits and copies resized the way dynamic content resizes a
// page. Each body's candidates are a target's page and zero to two
// blockpages, as a test with Block injectors has.
func TestFixedPageVerdicts(t *testing.T) {
	s := buildStack(t, 5, 10)
	keys := make([]pageKey, 0, len(s.blockpages))
	for k := range s.blockpages {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b pageKey) int {
		return cmp.Or(cmp.Compare(a.template, b.template), cmp.Compare(a.country, b.country))
	})
	if len(keys) < 3 {
		t.Fatalf("the world renders %d blockpages; the test needs a few", len(keys))
	}
	known := -1 // a template the world's DB knows, for marker suffixes
	for id := range 64 {
		if s.Fingerprints.Knows(id) {
			known = id
			break
		}
	}
	if known < 0 {
		t.Fatal("the world's DB knows no template below 64")
	}
	suffixes := [][]byte{
		[]byte("<p>more</p>"),
		blockpage.Render(known, "XX"),
		[]byte("<TITLE>access denied</TITLE> not available in your region"),
		[]byte("FILTER-"),
	}

	world := s.Fingerprints
	defer func() { s.Fingerprints = world }()
	for _, db := range []*blockpage.FingerprintDB{world, blockpage.Empty()} {
		s.Fingerprints = db
		v := s.verdicts()
		rng := rand.New(rand.NewPCG(5, 0x7061676573)) // "pages"
		var equal, prefixed, matched int
		check := func(body []byte, ti int, blocks []pageKey) {
			t.Helper()
			target := &s.Targets[ti]
			cands := []fixedPage{{target.Body, v.targets[ti]}}
			for _, k := range blocks {
				cands = append(cands, fixedPage{s.blockpages[k], v.blocks[k]})
			}
			for _, c := range cands {
				switch {
				case len(c.body) > 0 && slices.Equal(body, c.body):
					equal++
				case c.match && len(body) > len(c.body) && slices.Equal(body[:len(c.body)], c.body):
					prefixed++
				}
			}
			want := detect.Blockpage(body, len(target.Body), db)
			if got := v.blockpage(body, len(target.Body), cands); got != want {
				t.Fatalf("DB of %d signatures: the rule says %v for a %d-byte body (target %d, blockpages %v), detect.Blockpage %v",
					db.Len(), got, len(body), ti, blocks, want)
			}
			if want {
				matched++
			}
		}
		pick := func(page pageKey, with bool) []pageKey {
			var blocks []pageKey
			if with {
				blocks = append(blocks, page)
			}
			for range rng.IntN(2) {
				blocks = append(blocks, keys[rng.IntN(len(keys))])
			}
			rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
			return blocks
		}
		variants := func(page []byte, ti int, blocks []pageKey) {
			check(page, ti, blocks)
			check(nil, ti, blocks)
			for _, suf := range suffixes {
				check(append(slices.Clip(page), suf...), ti, blocks)
			}
			for range 4 {
				suf := make([]byte, 1+rng.IntN(300))
				for i := range suf {
					suf[i] = byte(rng.IntN(256))
				}
				check(append(slices.Clip(page), suf...), ti, blocks)
				check(page[:rng.IntN(len(page))], ti, blocks)
				edit := slices.Clone(page)
				edit[rng.IntN(len(edit))] = byte(rng.IntN(256))
				check(edit, ti, blocks)
				check(resized(page, int(float64(len(page))*(0.4+1.2*rng.Float64()))), ti, blocks)
			}
		}
		for ti := range s.Targets {
			variants(s.Targets[ti].Body, ti, pick(pageKey{}, false))
		}
		for _, k := range keys {
			variants(s.blockpages[k], rng.IntN(len(s.Targets)), pick(k, true))
		}
		t.Logf("DB of %d signatures: %d bodies equal to a page, %d extending a matched page, %d blockpages detected",
			db.Len(), equal, prefixed, matched)
		if db == world && (equal == 0 || prefixed == 0 || matched == 0) {
			t.Error("the bodies miss a branch of the rule")
		}
	}
}

// resized grows or shrinks a page to n bytes, repeating its content, as
// dynamic content resizes a live page.
func resized(page []byte, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, page[:min(n-len(out), len(page))]...)
	}
	return out
}
