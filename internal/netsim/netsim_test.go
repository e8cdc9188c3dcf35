package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"churntomo/internal/netaddr"
)

var t0 = time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)

func TestArrivalTTL(t *testing.T) {
	cases := []struct {
		initial uint8
		hops    int
		want    uint8
	}{
		{64, 0, 64},
		{64, 5, 59},
		{255, 10, 245},
		{64, 64, 0},  // died exactly at the destination hop count
		{64, 100, 0}, // died in transit
		{64, -1, 0},  // nonsense distance
	}
	for _, c := range cases {
		if got := ArrivalTTL(c.initial, c.hops); got != c.want {
			t.Errorf("ArrivalTTL(%d,%d) = %d, want %d", c.initial, c.hops, got, c.want)
		}
	}
}

func TestCaptureSortStable(t *testing.T) {
	var c Capture
	c.Add(Packet{At: t0.Add(3 * time.Millisecond), Seq: 3})
	c.Add(Packet{At: t0.Add(1 * time.Millisecond), Seq: 1})
	c.Add(Packet{At: t0.Add(1 * time.Millisecond), Seq: 2}) // same instant, later insert
	c.Sort()
	if c.Packets[0].Seq != 1 || c.Packets[1].Seq != 2 || c.Packets[2].Seq != 3 {
		t.Errorf("sort order wrong: %+v", c.Packets)
	}
	if len(c.Packets) != 3 {
		t.Errorf("%d packets, want 3", len(c.Packets))
	}
}

func TestSanitizedStripsGroundTruth(t *testing.T) {
	var c Capture
	c.Add(Packet{Injected: true, InjectedBy: 4134, Payload: []byte("x")})
	s := c.Sanitized()
	if s.Packets[0].Injected || s.Packets[0].InjectedBy != 0 {
		t.Error("Sanitized kept ground truth")
	}
	// Deep copy: mutating the sanitized payload must not affect the original.
	s.Packets[0].Payload[0] = 'y'
	if c.Packets[0].Payload[0] != 'x' {
		t.Error("Sanitized shares payload storage with original")
	}
	if !c.Packets[0].Injected {
		t.Error("Sanitized mutated the original")
	}
}

func TestDNSRoundTrip(t *testing.T) {
	m := DNSMessage{ID: 0xbeef, Response: true, Host: "deals-1.shop.com", Answer: netaddr.MustParseIP("20.3.0.7")}
	got, err := UnmarshalDNS(AppendDNS(nil, m))
	if err != nil {
		t.Fatalf("UnmarshalDNS: %v", err)
	}
	if got != m {
		t.Errorf("round trip: got %+v want %+v", got, m)
	}
}

func TestDNSRoundTripProperty(t *testing.T) {
	f := func(id uint16, resp bool, hostRaw []byte, answer uint32) bool {
		if len(hostRaw) > 255 {
			hostRaw = hostRaw[:255]
		}
		m := DNSMessage{ID: id, Response: resp, Host: string(hostRaw), Answer: netaddr.IP(answer)}
		// Appended after other bytes, the message is unchanged and they are kept.
		buf := AppendDNS([]byte("pre"), m)
		got, err := UnmarshalDNS(buf[3:])
		gotID, isResp := DNSResponseID(buf[3:])
		return err == nil && got == m && string(buf[:3]) == "pre" && isResp == resp && (!resp || gotID == id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalDNSErrors(t *testing.T) {
	if _, err := UnmarshalDNS([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	// Length mismatch: claims 10-byte host but carries 2.
	bad := []byte{0, 1, 0x80, 10, 'a', 'b', 0, 0, 0, 0}
	if _, err := UnmarshalDNS(bad); err == nil {
		t.Error("length mismatch accepted")
	}
	for _, b := range [][]byte{{1, 2, 3}, bad} {
		if _, ok := DNSResponseID(b); ok {
			t.Errorf("DNSResponseID accepted %v", b)
		}
	}
}

func TestFlagStrings(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("empty flags = %q", got)
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{Proto: ProtoTCP, Src: netaddr.MustParseIP("1.2.3.4"), SrcPort: 80,
		Dst: netaddr.MustParseIP("5.6.7.8"), DstPort: 1234, Flags: FlagRST, TTL: 60}
	s := p.String()
	if s == "" || p.Proto != ProtoTCP {
		t.Errorf("String = %q", s)
	}
	u := Packet{Proto: ProtoUDP, SrcPort: 53}
	if u.String() == "" {
		t.Error("UDP String empty")
	}
}
