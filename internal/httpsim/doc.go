// Package httpsim simulates the platform's HTTP GET test at packet level:
// TCP handshake, request, response segments, teardown — with on-path
// censors injecting RSTs, sequence-space data, TTL-anomalous duplicates or
// blockpages into the stream (paper §2.1, "SEQNO and TTL anomalies" /
// "Block pages").
//
// Entry points: Simulate runs one GET against a server with a set of
// on-path Injectors and Noise into a caller-owned Result, reusing its
// storage; the Result carries the client-side capture plus the HTTP body
// the client's stack would deliver, which feed internal/detect.
// DefaultNoise supplies the baseline packet-level noise profile.
//
// Invariants: injected segments obey the injector's behavioural knobs
// (initial TTL, sequence skew, TTL mimicry, connection-killing), so a
// censor's detectability is a property of its configured behaviour, not a
// coin flip; all randomness flows from the caller's RNG for per-day
// determinism. The delivered body is reassembled first-arrival-wins: the
// stream is sized once, that much of the Result's buffer is cleared, and
// the payloads are copied into it in reverse arrival order, so a Result
// that serves connection after connection allocates only when a stream
// outgrows its buffer (FuzzReassemble keeps the byte-at-a-time
// reassembly as its reference and reassembles into dirty buffers).
package httpsim
