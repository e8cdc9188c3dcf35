// Package netsim is the packet model under the measurement simulators:
// IPv4 TTL arithmetic, TCP sequence space, DNS transaction framing, and
// client-side captures.
//
// Entry points: Packet and Capture are the shared currency — the DNS and
// HTTP simulators build Captures out of them, and the detectors in
// internal/detect consume Captures exactly the way ICLab's offline
// analysis consumes raw pcaps. AppendDNS writes a DNS message's wire form
// into the caller's buffer; UnmarshalDNS decodes one, and DNSResponseID
// reads only a response's query ID, which is all the dual-response
// detector needs.
//
// Invariants: nothing in a Capture says "this packet was injected" except
// the ground-truth fields, which detectors are forbidden to read (enforced
// by convention and by tests that strip them). TTL constants
// (InitTTLLinux, InitTTLWindows) anchor the TTL-anomaly arithmetic used on
// both the injection and detection sides.
package netsim
