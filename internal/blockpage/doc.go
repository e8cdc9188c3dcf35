// Package blockpage models censor blockpages and their fingerprinting.
//
// Paper correspondence: §2.1, "Block pages". The detection side mirrors
// ICLab's two mechanisms: regular-expression matching against known
// blockpage corpora (OONI's lists in the paper), and the Jones et al.
// page-length comparison against a fetch from a censor-free US vantage
// point.
//
// Entry points: Render produces a censor's page for injection;
// NewFingerprintDB builds the detection corpus at a chosen coverage;
// FingerprintDB.Match and LengthDelta are the two detectors.
//
// Invariants: the corpus is deliberately incomplete — some censors' pages
// are unknown to the fingerprint DB and are only caught by the length
// heuristic, and a few slip through entirely, exactly the kind of detector
// imperfection the tomography has to live with. Rendering is
// deterministic per (template, country). Match answers exactly what one
// regexp per known template's `FILTER-%04d` marker plus the generic
// pattern would, in one scan: it finds each `FILTER-` and looks up the ID
// that follows, and runs the generic regexp only on a body that contains
// `<title>acce` under ASCII case folding, which every generic match does
// (FuzzFingerprintMatch keeps the per-pattern regexps as its reference).
// A suffix never undoes a match: Match(page+suffix) is true whenever
// Match(page) is, which lets measurement read a body's verdict off a
// matched page it begins with (FuzzFingerprintMatch checks that too).
package blockpage
