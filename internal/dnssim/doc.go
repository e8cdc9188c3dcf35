// Package dnssim simulates the platform's DNS injection test: the client
// resolves the test hostname against both its default resolver and the
// open anycast resolver (the 8.8.8.8 role); on-path injectors race spoofed
// answers against the real one (paper §2.1, "DNS anomalies").
//
// Entry points: Simulate runs one lookup against a resolver with a set of
// on-path Injectors and Noise, writing the client-side capture that
// internal/detect's dual-response detector consumes into a caller-owned
// Result whose packet and payload storage it reuses.
//
// Invariants: injector timing is distance-faithful — a middlebox closer to
// the client races its answer in earlier — and all randomness comes from
// the caller's RNG, so a measurement day's captures are a deterministic
// function of its day seed.
package dnssim
