package detect

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"churntomo/internal/blockpage"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

// DNSWindow is the dual-response window: a second response for the same
// query ID within this span of the first flags DNS injection.
const DNSWindow = 2 * time.Second

// TTLTolerance is the largest |TTL - baseline| treated as routine jitter.
// Injected packets typically miss the SYNACK's TTL by much more; ±1 happens
// on ECMP path wobble.
const TTLTolerance = 1

// LengthThreshold is the Jones et al. blockpage length-delta threshold.
const LengthThreshold = 0.30

// DNSDual reports DNS injection: two or more responses sharing a query ID
// within DNSWindow (the injected answer racing the resolver's).
func DNSDual(c *netsim.Capture, client netaddr.IP) bool {
	type firstSeen struct {
		at time.Time
	}
	seen := map[uint16]firstSeen{}
	for _, p := range c.Packets {
		if p.Dst != client || p.Proto != netsim.ProtoUDP || p.SrcPort != netsim.DNSPort {
			continue
		}
		id, ok := netsim.DNSResponseID(p.Payload)
		if !ok {
			continue
		}
		if f, ok := seen[id]; ok {
			if p.At.Sub(f.at) <= DNSWindow {
				return true
			}
			continue
		}
		seen[id] = firstSeen{p.At}
	}
	return false
}

// HTTPVerdict carries the three packet-level HTTP anomaly flags.
type HTTPVerdict struct {
	TTL bool // server packets with TTLs inconsistent with the SYNACK
	SEQ bool // overlapping (different content) or gapped sequence ranges
	RST bool // reset with sequence/TTL attributes a real server wouldn't have
}

// Scratch is the HTTP detector's reusable working memory: the list of a
// capture's data segments, which it sorts. The zero value is ready to
// use; a Scratch belongs to one goroutine at a time.
type Scratch struct {
	segs []segment
}

// segment is one data-bearing packet's place in the server's stream.
type segment struct {
	seq     uint32
	payload []byte
}

// HTTP analyzes one connection's capture, listing its segments in sc's
// storage. The baseline TTL is the SYNACK's: the paper's assumption is
// that no censor beats the server's SYNACK, so it anchors what "packets
// from the real server" look like.
func HTTP(c *netsim.Capture, client, server netaddr.IP, sc *Scratch) HTTPVerdict {
	var v HTTPVerdict

	// Locate the SYNACK.
	var baseTTL uint8
	var isn uint32
	found := false
	for _, p := range c.Packets {
		if p.Src == server && p.Dst == client && p.Proto == netsim.ProtoTCP &&
			p.Flags&(netsim.FlagSYN|netsim.FlagACK) == netsim.FlagSYN|netsim.FlagACK {
			baseTTL, isn, found = p.TTL, p.Seq, true
			break
		}
	}
	if !found {
		return v // no connection establishment; nothing to judge
	}

	segs := sc.segs[:0]
	totalData := 0
	for i := range c.Packets {
		p := &c.Packets[i]
		if !fromServer(p, client, server) || p.Flags&netsim.FlagRST != 0 {
			continue // RSTs are judged below
		}
		if len(p.Payload) > 0 {
			// TTL judgement is restricted to data-bearing packets: control
			// packets (RST/FIN) are judged by the RST rule below, which
			// keeps each censor technique's anomaly signature distinct.
			if ttlDelta(p.TTL, baseTTL) > TTLTolerance {
				v.TTL = true
			}
			segs = append(segs, segment{p.Seq, p.Payload})
			totalData += len(p.Payload)
		}
	}

	// Sequence-space analysis over relative offsets from ISN+1.
	// Gap: a hole in stream coverage. Overlap: two segments covering the
	// same bytes with different content (a faithful retransmission is
	// benign; an injection that guessed the sequence space rarely matches
	// the real payload). Neither check depends on the order of segments
	// with equal sequence numbers: the gap check keeps a running maximum,
	// and the conflict check compares every pair.
	sc.segs = segs
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.seq, b.seq) })
	base := isn + 1
	var covered uint32 // next expected relative offset when contiguous
	for _, s := range segs {
		rel := s.seq - base
		if rel > covered {
			v.SEQ = true // gap in the stream
		}
		if end := rel + uint32(len(s.payload)); end > covered {
			covered = end
		}
	}
	for i := 0; i < len(segs) && !v.SEQ; i++ {
		for j := i + 1; j < len(segs); j++ {
			if segmentsConflict(segs[i].seq, segs[i].payload, segs[j].seq, segs[j].payload) {
				v.SEQ = true
				break
			}
		}
	}

	// RST judgement: a legitimate teardown RST carries the next sequence
	// number (ISN+1 before data, stream end after) and the server's TTL.
	dataEnd := base + uint32(totalData)
	for i := range c.Packets {
		r := &c.Packets[i]
		if !fromServer(r, client, server) || r.Flags&netsim.FlagRST == 0 {
			continue
		}
		seqOK := r.Seq == dataEnd || r.Seq == base
		ttlOK := ttlDelta(r.TTL, baseTTL) <= TTLTolerance
		if !seqOK || !ttlOK {
			v.RST = true
		}
	}
	return v
}

// fromServer reports whether p is a TCP packet from server to client
// other than the SYNACK.
func fromServer(p *netsim.Packet, client, server netaddr.IP) bool {
	return p.Src == server && p.Dst == client && p.Proto == netsim.ProtoTCP && p.Flags&netsim.FlagSYN == 0
}

// segmentsConflict reports whether two segments cover shared sequence
// space with different bytes.
func segmentsConflict(seqA uint32, a []byte, seqB uint32, b []byte) bool {
	lo := maxU32(seqA, seqB)
	hi := minU32(seqA+uint32(len(a)), seqB+uint32(len(b)))
	if lo >= hi {
		return false
	}
	return !bytes.Equal(a[lo-seqA:hi-seqA], b[lo-seqB:hi-seqB])
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func ttlDelta(a, b uint8) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return d
}

// Blockpage reports whether an HTTP body is a censor blockpage, combining
// signature matching against the corpus with the length-delta comparison
// against the censor-free baseline fetch.
func Blockpage(body []byte, baselineLen int, db *blockpage.FingerprintDB) bool {
	if len(body) == 0 {
		return false
	}
	if db != nil && db.Match(body) {
		return true
	}
	return blockpage.LengthDelta(len(body), baselineLen, LengthThreshold)
}
