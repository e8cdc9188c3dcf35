package httpsim

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

var (
	client = netaddr.MustParseIP("20.0.0.5")
	server = netaddr.MustParseIP("21.0.0.9")
)

func params(body []byte) Params {
	return Params{
		At:         time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC),
		ClientIP:   client,
		ServerIP:   server,
		Host:       "h.example.com",
		ServerDist: 10,
		ServerTTL:  netsim.InitTTLLinux,
		Body:       body,
	}
}

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func TestSimulateCleanConnection(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var res Result
	Simulate(params(body(3000)), nil, Noise{}, rng, &res)
	if !bytes.Equal(res.Body, body(3000)) {
		t.Fatal("clean body corrupted")
	}
	if res.BaselineLen != 3000 {
		t.Errorf("baseline %d", res.BaselineLen)
	}
	// Handshake present and ordered.
	pk := res.Capture.Packets
	if pk[0].Flags != netsim.FlagSYN {
		t.Errorf("first packet %v", pk[0].Flags)
	}
	if pk[1].Flags != netsim.FlagSYN|netsim.FlagACK || pk[1].Src != server {
		t.Errorf("second packet %v from %v", pk[1].Flags, pk[1].Src)
	}
	// Segmentation: 3000 bytes at MSS 1200 = 3 data segments.
	data := 0
	for _, p := range pk {
		if p.Src == server && len(p.Payload) > 0 {
			data++
		}
	}
	if data != 3 {
		t.Errorf("data segments %d, want 3", data)
	}
}

func TestSimulateSegmentSequenceNumbers(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	var res Result
	Simulate(params(body(2500)), nil, Noise{}, rng, &res)
	var isn uint32
	var segs []netsim.Packet
	for _, p := range res.Capture.Packets {
		if p.Src != server {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			isn = p.Seq
			continue
		}
		if len(p.Payload) > 0 {
			segs = append(segs, p)
		}
	}
	next := isn + 1
	for i, s := range segs {
		if s.Seq != next {
			t.Fatalf("segment %d seq %d, want %d", i, s.Seq, next)
		}
		next += uint32(len(s.Payload))
	}
}

func TestSimulateBlockpageInPathSuppressesServer(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	page := []byte("<html>blocked</html>")
	inj := []Injector{{ASN: 1, Dist: 4, Technique: anomaly.Block, InitTTL: 64, InPath: true, Blockpage: page}}
	var res Result
	Simulate(params(body(4000)), inj, Noise{}, rng, &res)
	if !bytes.Equal(res.Body, page) {
		t.Fatalf("body = %q, want blockpage", res.Body)
	}
	for _, p := range res.Capture.Packets {
		if p.Src == server && len(p.Payload) > 0 && !p.Injected {
			t.Fatal("in-path block should suppress the real response")
		}
	}
}

func TestSimulateInjectionRacesAhead(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	inj := []Injector{{ASN: 1, Dist: 3, Technique: anomaly.Block, InitTTL: 255, Blockpage: []byte("X-BLOCKED-X")}}
	var res Result
	Simulate(params(body(2000)), inj, Noise{}, rng, &res)
	// First data byte delivered must come from the injection.
	if res.Body[0] != 'X' {
		t.Errorf("injection lost the race: body starts %q", res.Body[:8])
	}
}

func TestReassembleFirstArrivalWins(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	inj := []Injector{{ASN: 1, Dist: 3, Technique: anomaly.SEQ, InitTTL: 64, MimicTTL: true}}
	var res Result
	Simulate(params(body(2000)), inj, Noise{}, rng, &res)
	// The injected chunk overwrote part of the stream (or extended it);
	// the result must differ from the clean body somewhere if the offset
	// landed inside, and the prefix before the offset must be intact.
	if len(res.Body) < 2000 {
		t.Fatalf("body truncated to %d", len(res.Body))
	}
}

func TestResizeBody(t *testing.T) {
	b := []byte("abcdef")
	if got := resizeBody(b, 3); string(got) != "abc" {
		t.Errorf("shrink: %q", got)
	}
	if got := resizeBody(b, 14); string(got) != "abcdefabcdefab" {
		t.Errorf("grow: %q", got)
	}
	if got := resizeBody(b, 0); len(got) == 0 {
		t.Error("zero-size resize should return placeholder")
	}
	if got := resizeBody(nil, 10); len(got) != 0 {
		// No content to repeat: returns empty rather than looping forever.
		t.Errorf("nil body resize: %q", got)
	}
}

func TestOrganicRSTHasValidSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	n := Noise{OrganicRSTProb: 1} // always RST teardown
	var res Result
	Simulate(params(body(1000)), nil, n, rng, &res)
	var isn uint32
	var rst *netsim.Packet
	total := 0
	for i, p := range res.Capture.Packets {
		if p.Src != server {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			isn = p.Seq
		}
		if len(p.Payload) > 0 {
			total += len(p.Payload)
		}
		if p.Flags&netsim.FlagRST != 0 {
			rst = &res.Capture.Packets[i]
		}
	}
	if rst == nil {
		t.Fatal("no organic RST emitted at prob 1")
	}
	if rst.Seq != isn+1+uint32(total) {
		t.Errorf("organic RST seq %d, want stream end %d", rst.Seq, isn+1+uint32(total))
	}
	if rst.Injected {
		t.Error("organic RST marked injected")
	}
}

// referenceReassemble is the reassembly reassemble replaced: grow the
// stream as segments arrive, track delivered bytes in a []bool and keep
// the first arrival's byte at each offset.
func referenceReassemble(c *netsim.Capture, client, server netaddr.IP, isn uint32) []byte {
	base := isn + 1
	var buf []byte
	var have []bool
	for _, p := range c.Packets {
		if p.Src != server || p.Dst != client || p.Proto != netsim.ProtoTCP || len(p.Payload) == 0 {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			continue
		}
		rel := p.Seq - base
		if rel > 1<<20 {
			continue
		}
		need := int(rel) + len(p.Payload)
		if len(buf) < need {
			buf = append(buf, make([]byte, need-len(buf))...)
			have = append(have, make([]bool, need-len(have))...)
		}
		for i, b := range p.Payload {
			if off := int(rel) + i; !have[off] {
				buf[off] = b
				have[off] = true
			}
		}
	}
	end := len(buf)
	for end > 0 && !have[end-1] {
		end--
	}
	return buf[:end]
}

// FuzzReassemble checks reassemble against the []bool first-arrival loop
// it replaced, into fresh storage and into recycled storage: the buffer
// the previous input left, and buffers of nonzero bytes one longer and one
// shorter than the stream, so a gap that kept a stale byte shows. The
// input is a sequence of segments, in arrival order, each a header of
// four bytes then its payload:
//
//	flags  bit 0 SYN, bit 1 sent by the client, bit 2 UDP, bit 3 empty;
//	       bits 4-5 place the offset: 0 as given, 1 near the 1 MiB
//	       window's edge, 2 before the stream's start, 3 far past it
//	offset two bytes, big-endian, from the first byte of the stream
//	length payload bytes that follow (at most 63)
//
// The seeds overlap segments, leave gaps, flag a SYN and place sequence
// numbers on, inside and past the window's edges.
func FuzzReassemble(f *testing.F) {
	const isn = 0xfffffff0 // the stream's sequence numbers wrap
	seg := func(flags byte, off uint16, payload string) []byte {
		return append([]byte{flags, byte(off >> 8), byte(off), byte(len(payload))}, payload...)
	}
	cat := func(segs ...[]byte) []byte { return bytes.Join(segs, nil) }
	f.Add(cat(seg(0, 0, "hello world"), seg(0, 6, "WORLD!!"), seg(0, 3, "xx")))
	f.Add(cat(seg(0, 20, "late"), seg(0, 0, "early"), seg(0, 40, "gap before me")))
	f.Add(cat(seg(1, 0, "syn data"), seg(0, 4, "data")))
	f.Add(cat(seg(2, 0, "from client"), seg(4, 0, "udp"), seg(8, 0, "empty"), seg(0, 2, "ok")))
	f.Add(cat(seg(0x10, 0, "edge"), seg(0x10, 3, "past"), seg(0, 0, "head")))
	f.Add(cat(seg(0x10, 4, "on the edge"), seg(0x10, 5, "past it")))
	f.Add(cat(seg(0x20, 1, "before"), seg(0x30, 0, "far"), seg(0, 0, "in")))
	f.Add(cat(seg(0, 0, "first"), seg(0, 0, "again"), seg(0, 2, "overlap three"), seg(0, 30, "")))
	f.Add([]byte{})
	var left []byte // the storage the previous input was reassembled into
	f.Fuzz(func(t *testing.T, data []byte) {
		var c netsim.Capture
		for len(data) >= 4 {
			flags, off := data[0], uint32(data[1])<<8|uint32(data[2])
			n := min(int(data[3]%64), len(data)-4)
			payload := data[4 : 4+n]
			data = data[4+n:]
			rel := off
			switch flags >> 4 & 3 {
			case 1:
				rel = 1<<20 - 4 + off%8
			case 2:
				rel = ^uint32(0) - off%8 // before the first byte
			case 3:
				rel = 1<<20 + 1 + off
			}
			p := netsim.Packet{
				Src: server, Dst: client, Proto: netsim.ProtoTCP,
				Seq: isn + 1 + rel, Flags: netsim.FlagACK, Payload: payload,
			}
			if flags&1 != 0 {
				p.Flags |= netsim.FlagSYN
			}
			if flags&2 != 0 {
				p.Src, p.Dst = client, server
			}
			if flags&4 != 0 {
				p.Proto = netsim.ProtoUDP
			}
			if flags&8 != 0 {
				p.Payload = nil
			}
			c.Add(p)
		}
		want := referenceReassemble(&c, client, server, isn)
		if got := reassemble(nil, &c, client, server, isn); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("reassemble gave %d bytes, the reference %d: %q vs %q", len(got), len(want), got, want)
		}
		longer := bytes.Repeat([]byte{0xa5}, len(want)+1)
		shorter := bytes.Repeat([]byte{0x5a}, max(len(want)-1, 0))
		for _, buf := range [][]byte{left, longer, shorter} {
			prev := len(buf)
			if got := reassemble(buf, &c, client, server, isn); !bytes.Equal(got, want) {
				t.Fatalf("into a dirty %d-byte buffer, reassemble gave %d bytes, the reference %d: %q vs %q",
					prev, len(got), len(want), got, want)
			}
		}
		left = reassemble(left, &c, client, server, isn)
	})
}
