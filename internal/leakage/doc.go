// Package leakage implements the paper's §3.3 analysis: finding ASes whose
// users inherit censorship because their traffic transits a censoring AS
// in another jurisdiction.
//
// Only unique-solution CNFs participate. On each censored path, the ASes
// upstream of an identified censor (closer to the vantage point) that were
// assigned False and sit in a different country are victims of censorship
// leakage. Aggregated per censor, this yields the paper's Table 3 (top
// leakers by victim ASes and countries) and Figure 5 (the country-level
// flow of censorship).
//
// Entry points: Analyze folds solved outcomes into an Analysis;
// LeakToOtherASes/LeakToOtherCountries are the headline counts; TopLeakers
// (the full ranking, uncut), FlowEdges and RegionalFrac feed the Table 3 /
// Figure 5 reports.
//
// Invariants: leakage reads only solved tomography outcomes — never ground
// truth — so its errors are exactly the identification errors upstream.
package leakage
