// Package netaddr provides compact IPv4 address and prefix types plus a
// generic longest-prefix-match trie, the substrate for the simulator's
// IP-to-AS mapping database and router address allocation.
//
// Entry points: MakeIP/ParseIP and MakePrefix/ParsePrefix construct the
// value types; Trie[V] offers Insert/Delete/Lookup for longest-prefix
// matching.
//
// Invariants: IP is a uint32 value type — the standard library's net.IP is
// a heap-allocated byte slice, and the simulator handles millions of
// addresses on hot paths (gopacket takes the same approach with its fixed
// Endpoint arrays for the same reason). Trie lookups are read-only and
// safe for concurrent readers once populated.
package netaddr
