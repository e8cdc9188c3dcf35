package netsim

import (
	"fmt"
	"slices"
	"time"

	"churntomo/internal/netaddr"
)

// Proto is the transport protocol of a packet.
type Proto uint8

// Protocols.
const (
	ProtoUDP Proto = iota
	ProtoTCP
)

// TCPFlags is a TCP flag bitmask.
type TCPFlags uint8

// TCP flags.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagRST
	FlagFIN
	FlagPSH
)

// String renders flags in tcpdump style, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagRST, "RST"}, {FlagFIN, "FIN"}, {FlagPSH, "PSH"}}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Packet is one captured packet as seen at the vantage point.
type Packet struct {
	At       time.Time
	Src, Dst netaddr.IP
	TTL      uint8 // TTL on arrival at the capture point
	Proto    Proto
	SrcPort  uint16
	DstPort  uint16
	Seq, Ack uint32
	Flags    TCPFlags
	Payload  []byte

	// Ground truth for validation and tests only. Detectors MUST NOT read
	// these fields; Capture.Sanitized returns a copy with them erased so
	// tests can prove detectors behave identically without them.
	Injected   bool
	InjectedBy uint32 // ASN of the injecting middlebox
}

// String summarizes a packet for debugging.
func (p Packet) String() string {
	if p.Proto == ProtoUDP {
		return fmt.Sprintf("UDP %v:%d > %v:%d ttl=%d len=%d",
			p.Src, p.SrcPort, p.Dst, p.DstPort, p.TTL, len(p.Payload))
	}
	return fmt.Sprintf("TCP %v:%d > %v:%d [%v] seq=%d ack=%d ttl=%d len=%d",
		p.Src, p.SrcPort, p.Dst, p.DstPort, p.Flags, p.Seq, p.Ack, p.TTL, len(p.Payload))
}

// Capture is a time-ordered client-side packet capture.
type Capture struct {
	Packets []Packet
}

// Add appends a packet, keeping time order lazily (Sort finalizes).
func (c *Capture) Add(p Packet) { c.Packets = append(c.Packets, p) }

// Sort orders packets by arrival time (stable, so simultaneous packets keep
// insertion order, like a real pcap).
func (c *Capture) Sort() {
	slices.SortStableFunc(c.Packets, func(a, b Packet) int {
		return a.At.Compare(b.At)
	})
}

// Sanitized returns a deep copy with all ground-truth annotations erased.
// Tests run detectors on both versions to prove no ground-truth leakage.
func (c *Capture) Sanitized() Capture {
	out := Capture{Packets: make([]Packet, len(c.Packets))}
	copy(out.Packets, c.Packets)
	for i := range out.Packets {
		out.Packets[i].Injected = false
		out.Packets[i].InjectedBy = 0
		out.Packets[i].Payload = append([]byte(nil), out.Packets[i].Payload...)
	}
	return out
}

// Common initial TTLs. Linux-style servers start at 64, Windows-style at
// 128, and many injection boxes send at 255 to guarantee delivery — a
// fingerprint ICLab's TTL detector exploits.
const (
	InitTTLLinux   uint8 = 64
	InitTTLWindows uint8 = 128
	InitTTLMax     uint8 = 255
)

// ArrivalTTL computes the TTL observed after hops router traversals.
// Arrival TTL below 1 means the packet died in transit; callers should drop
// it (returns 0).
func ArrivalTTL(initial uint8, hops int) uint8 {
	if hops < 0 || hops >= int(initial) {
		return 0
	}
	return initial - uint8(hops)
}

// DNSMessage is a minimal DNS transaction model: enough structure for the
// dual-response injection detector (query ID matching and answer payloads),
// serialized into Packet.Payload.
type DNSMessage struct {
	ID       uint16
	Response bool
	Host     string
	Answer   netaddr.IP // A record; 0 for queries
}

// AppendDNS appends m's compact wire form to buf and returns the
// extended slice.
func AppendDNS(buf []byte, m DNSMessage) []byte {
	buf = append(buf, byte(m.ID>>8), byte(m.ID))
	flag := byte(0)
	if m.Response {
		flag = 0x80
	}
	buf = append(buf, flag, byte(len(m.Host)))
	buf = append(buf, m.Host...)
	a := uint32(m.Answer)
	return append(buf, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// UnmarshalDNS decodes a payload produced by AppendDNS.
func UnmarshalDNS(b []byte) (DNSMessage, error) {
	if err := checkDNS(b); err != nil {
		return DNSMessage{}, err
	}
	hostLen := int(b[3])
	a := b[4+hostLen:]
	return DNSMessage{
		ID:       uint16(b[0])<<8 | uint16(b[1]),
		Response: b[2]&0x80 != 0,
		Host:     string(b[4 : 4+hostLen]),
		Answer:   netaddr.IP(uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])),
	}, nil
}

// DNSResponseID returns the query ID of a DNS response payload, without
// decoding the rest: ok is false for a query or for a payload
// UnmarshalDNS rejects.
func DNSResponseID(b []byte) (id uint16, ok bool) {
	if checkDNS(b) != nil || b[2]&0x80 == 0 {
		return 0, false
	}
	return uint16(b[0])<<8 | uint16(b[1]), true
}

// checkDNS reports whether b is too short or disagrees with its own host
// length.
func checkDNS(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("netsim: DNS payload too short (%d bytes)", len(b))
	}
	if len(b) != 8+int(b[3]) {
		return fmt.Errorf("netsim: DNS payload length mismatch")
	}
	return nil
}

// DNSPort is the well-known DNS port.
const DNSPort uint16 = 53

// HTTPPort is the well-known HTTP port.
const HTTPPort uint16 = 80
