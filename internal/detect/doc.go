// Package detect implements ICLab's five anomaly detectors over simulated
// captures (paper §2.1). Detectors see exactly what a vantage point's pcap
// would contain: arrival times, addresses, TTLs, TCP sequence numbers,
// flags and payloads.
//
// Entry points: DNSDual flags dual DNS responses within the injection
// window; HTTP scans a capture for RST, sequence-overlap and TTL
// anomalies (HTTPVerdict carries all three), listing its segments in a
// caller's reusable Scratch; Blockpage combines fingerprint and
// page-length detection.
//
// Invariants: detectors never consult ground truth — tests verify this by
// running them on sanitized captures — so false positives and misses
// propagate into the tomography the same way they do in the real
// platform. Detection is a pure function of the capture: no RNG, no
// clock.
package detect
