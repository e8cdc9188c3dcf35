package httpsim

import (
	"math/rand/v2"
	"slices"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

// HopLatency is the simulated one-way per-hop latency.
const HopLatency = 2 * time.Millisecond

// segmentSize is the simulated MSS.
const segmentSize = 1200

// Params describes one HTTP measurement.
type Params struct {
	At         time.Time
	ClientIP   netaddr.IP
	ServerIP   netaddr.IP
	Host       string
	ServerDist int    // hop distance client -> server
	ServerTTL  uint8  // server's initial TTL (64 or 128)
	Body       []byte // the page a censor-free fetch returns
}

// Injector is one on-path middlebox acting on this connection.
type Injector struct {
	ASN       uint32
	Dist      int // hop distance client -> middlebox
	Technique anomaly.Kind
	InitTTL   uint8
	SeqSkew   bool   // RST sequence numbers guessed imperfectly
	InPath    bool   // blockpage boxes that also drop the real response
	MimicTTL  bool   // SEQ injections imitate the server's arrival TTL
	KillsConn bool   // blockpage boxes that append a RST
	Blockpage []byte // body served for Technique == Block
}

// Noise parameterizes organic imperfections. Zero values mean "no noise";
// DefaultNoise supplies the calibrated rates.
type Noise struct {
	// TTLJitterProb: per server packet, the arrival TTL wobbles by one
	// (ECMP). Tolerated by the detector.
	TTLJitterProb float64
	// PathShiftProb: the server->client return path changes mid-connection,
	// shifting all subsequent TTLs by 2..5 — a TTL false positive.
	PathShiftProb float64
	// OrganicRSTProb: the server tears the connection down with a RST
	// (common for busy servers).
	OrganicRSTProb float64
	// OrganicRSTOddTTLProb: an organic RST is emitted by a different box
	// (load balancer) whose TTL disagrees with the SYNACK's — the RST
	// detector's main false-positive source, which the paper singles out
	// as the platform's noisiest signal.
	OrganicRSTOddTTLProb float64
	// DynamicBodyProb: the page's size changes between fetches (dynamic
	// content) enough to trip the blockpage length heuristic.
	DynamicBodyProb float64
}

// DefaultNoise returns rates calibrated so that the anomaly mix lands near
// the paper's Table 1 and RST is the noisiest detector (Figure 1b).
func DefaultNoise() Noise {
	return Noise{
		TTLJitterProb:        0.06,
		PathShiftProb:        0.0004,
		OrganicRSTProb:       0.08,
		OrganicRSTOddTTLProb: 0.008,
		DynamicBodyProb:      0.0005,
	}
}

// Result is one simulated connection. Simulate fills a caller-owned
// Result and reuses its storage, so one Result can serve connection after
// connection; each Simulate overwrites every field, and the capture's
// payloads and Body are valid only until the next.
type Result struct {
	Capture netsim.Capture
	// Body is what the client's HTTP stack delivered: the first data to
	// arrive wins the sequence space, as in a real TCP implementation.
	Body []byte
	// BaselineLen is the body length a censor-free control fetch saw
	// (subject to dynamic-content noise).
	BaselineLen int

	request  []byte // the GET's bytes
	injected []byte // the payloads of sequence-space injections
}

// Simulate runs one HTTP GET through the injectors into res.
func Simulate(p Params, injectors []Injector, n Noise, rng *rand.Rand, res *Result) {
	c := &res.Capture
	c.Packets = c.Packets[:0]
	res.injected = res.injected[:0]
	clientPort := uint16(20000 + rng.IntN(40000))
	clientISN := rng.Uint32()
	serverISN := rng.Uint32()
	rtt := time.Duration(2*p.ServerDist) * HopLatency

	jitter := func() uint8 {
		if rng.Float64() < n.TTLJitterProb {
			return 1
		}
		return 0
	}
	serverTTLNow := netsim.ArrivalTTL(p.ServerTTL, p.ServerDist)

	// Handshake.
	c.Add(netsim.Packet{
		At: p.At, Src: p.ClientIP, Dst: p.ServerIP, TTL: netsim.InitTTLLinux,
		Proto: netsim.ProtoTCP, SrcPort: clientPort, DstPort: netsim.HTTPPort,
		Seq: clientISN, Flags: netsim.FlagSYN,
	})
	c.Add(netsim.Packet{
		At: p.At.Add(rtt), Src: p.ServerIP, Dst: p.ClientIP, TTL: serverTTLNow,
		Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
		Seq: serverISN, Ack: clientISN + 1, Flags: netsim.FlagSYN | netsim.FlagACK,
	})
	getAt := p.At.Add(rtt)
	res.request = append(append(append(res.request[:0], "GET / HTTP/1.1\r\nHost: "...), p.Host...), "\r\nConnection: close\r\n\r\n"...)
	request := res.request
	c.Add(netsim.Packet{
		At: getAt, Src: p.ClientIP, Dst: p.ServerIP, TTL: netsim.InitTTLLinux,
		Proto: netsim.ProtoTCP, SrcPort: clientPort, DstPort: netsim.HTTPPort,
		Seq: clientISN + 1, Ack: serverISN + 1, Flags: netsim.FlagACK | netsim.FlagPSH,
		Payload: request,
	})

	// Mid-connection return-path shift (organic TTL noise).
	shift := 0
	if rng.Float64() < n.PathShiftProb {
		shift = 2 + rng.IntN(4)
		if rng.Float64() < 0.5 {
			shift = -shift
		}
	}
	serverDataTTL := func() uint8 {
		return uint8(int(netsim.ArrivalTTL(p.ServerTTL, p.ServerDist)) + shift + int(jitter()))
	}

	// The real response body (with occasional dynamic-content drift).
	body := p.Body
	baselineLen := len(p.Body)
	if rng.Float64() < n.DynamicBodyProb {
		// The live page grew or shrank versus the control fetch.
		scale := 0.4 + 1.2*rng.Float64()
		body = resizeBody(p.Body, int(float64(len(p.Body))*scale))
	}

	serverRespAt := getAt.Add(rtt + time.Duration(rng.IntN(15)+5)*time.Millisecond)
	blockpageDropsServer := false

	// Injections: each middlebox sees the GET after Dist hops; its packets
	// reach the client 2*Dist hops after the GET left.
	for _, inj := range injectors {
		injAt := getAt.Add(time.Duration(2*inj.Dist) * HopLatency)
		injTTL := netsim.ArrivalTTL(inj.InitTTL, inj.Dist)
		if injTTL == 0 {
			continue
		}
		switch inj.Technique {
		case anomaly.RST:
			seq := serverISN + 1
			if inj.SeqSkew {
				seq += uint32(rng.IntN(1400) + 1)
			}
			for i := 0; i < 1+rng.IntN(3); i++ { // injectors often fire bursts
				c.Add(netsim.Packet{
					At:  injAt.Add(time.Duration(i) * time.Millisecond),
					Src: p.ServerIP, Dst: p.ClientIP, TTL: injTTL,
					Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
					Seq: seq, Flags: netsim.FlagRST,
					Injected: true, InjectedBy: inj.ASN,
				})
			}
		case anomaly.Block:
			c.Add(netsim.Packet{
				At:  injAt,
				Src: p.ServerIP, Dst: p.ClientIP, TTL: injTTL,
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: serverISN + 1, Ack: clientISN + 1 + uint32(len(request)),
				Flags:    netsim.FlagACK | netsim.FlagPSH,
				Payload:  inj.Blockpage,
				Injected: true, InjectedBy: inj.ASN,
			})
			if inj.InPath {
				blockpageDropsServer = true
			} else if inj.KillsConn {
				// On-path boxes usually also try to kill the connection.
				c.Add(netsim.Packet{
					At:  injAt.Add(time.Millisecond),
					Src: p.ServerIP, Dst: p.ClientIP, TTL: injTTL,
					Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
					Seq: serverISN + 1 + uint32(len(inj.Blockpage)), Flags: netsim.FlagRST,
					Injected: true, InjectedBy: inj.ASN,
				})
			}
		case anomaly.SEQ:
			// Inject data into the middle of the stream with content that
			// cannot match the real bytes. TTL usually mimics the server
			// (crafted), sometimes misses by a few hops.
			ttl := netsim.ArrivalTTL(p.ServerTTL, p.ServerDist)
			if !inj.MimicTTL {
				ttl = uint8(int(ttl) - (2 + rng.IntN(6)))
			}
			off := uint32(rng.IntN(len(body) + 400))
			from := len(res.injected)
			for range 200 + rng.IntN(400) {
				res.injected = append(res.injected, byte('A'+rng.IntN(26)))
			}
			chunk := res.injected[from:len(res.injected):len(res.injected)]
			c.Add(netsim.Packet{
				At:  serverRespAt.Add(-time.Millisecond), // races just ahead
				Src: p.ServerIP, Dst: p.ClientIP, TTL: ttl,
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: serverISN + 1 + off, Ack: clientISN + 1 + uint32(len(request)),
				Flags: netsim.FlagACK, Payload: chunk,
				Injected: true, InjectedBy: inj.ASN,
			})
		case anomaly.TTL:
			// Re-emit the first real segment verbatim with the box's own
			// TTL: content-identical (no SEQ flag), TTL-anomalous.
			seg := body
			if len(seg) > segmentSize {
				seg = seg[:segmentSize]
			}
			c.Add(netsim.Packet{
				At:  serverRespAt.Add(time.Millisecond),
				Src: p.ServerIP, Dst: p.ClientIP, TTL: injTTL,
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: serverISN + 1, Ack: clientISN + 1 + uint32(len(request)),
				Flags: netsim.FlagACK, Payload: seg,
				Injected: true, InjectedBy: inj.ASN,
			})
		}
	}

	// The real server response (unless an in-path box swallowed the GET).
	if !blockpageDropsServer {
		at := serverRespAt
		seq := serverISN + 1
		for off := 0; off < len(body); off += segmentSize {
			end := off + segmentSize
			if end > len(body) {
				end = len(body)
			}
			c.Add(netsim.Packet{
				At:  at,
				Src: p.ServerIP, Dst: p.ClientIP, TTL: serverDataTTL(),
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: seq, Ack: clientISN + 1 + uint32(len(request)),
				Flags: netsim.FlagACK | netsim.FlagPSH, Payload: body[off:end],
			})
			seq += uint32(end - off)
			at = at.Add(time.Duration(rng.IntN(3)+1) * time.Millisecond)
		}
		// Teardown: FIN normally, RST for impatient servers.
		if rng.Float64() < n.OrganicRSTProb {
			ttl := serverDataTTL()
			if rng.Float64() < n.OrganicRSTOddTTLProb {
				// Emitted by a load balancer at a different distance.
				ttl = uint8(int(ttl) - (2 + rng.IntN(5)))
			}
			c.Add(netsim.Packet{
				At:  at,
				Src: p.ServerIP, Dst: p.ClientIP, TTL: ttl,
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: seq, Flags: netsim.FlagRST,
			})
		} else {
			c.Add(netsim.Packet{
				At:  at,
				Src: p.ServerIP, Dst: p.ClientIP, TTL: serverDataTTL(),
				Proto: netsim.ProtoTCP, SrcPort: netsim.HTTPPort, DstPort: clientPort,
				Seq: seq, Ack: clientISN + 1 + uint32(len(request)), Flags: netsim.FlagFIN | netsim.FlagACK,
			})
		}
	}

	c.Sort()
	res.Body = reassemble(res.Body, c, p.ClientIP, p.ServerIP, serverISN)
	res.BaselineLen = baselineLen
}

// reassemble reconstructs the byte stream the client delivers to its HTTP
// layer into buf's storage, growing it when the stream is longer, and
// returns it: first-arrival wins each sequence range, mirroring how
// injected segments poison real TCP stacks. It sizes the stream, clears
// that much of buf, then copies payloads into it in reverse arrival
// order, so each range ends up holding the first arrival's bytes. Gaps
// are zero bytes; the stream ends with the last byte any segment
// delivered.
func reassemble(buf []byte, c *netsim.Capture, client, server netaddr.IP, isn uint32) []byte {
	size := 0
	for i := range c.Packets { // capture is time-ordered
		if rel, ok := streamOffset(&c.Packets[i], client, server, isn); ok {
			size = max(size, rel+len(c.Packets[i].Payload))
		}
	}
	buf = slices.Grow(buf[:0], size)[:size]
	clear(buf)
	for i := len(c.Packets) - 1; i >= 0; i-- {
		p := &c.Packets[i]
		if rel, ok := streamOffset(p, client, server, isn); ok {
			copy(buf[rel:], p.Payload)
		}
	}
	return buf
}

// streamOffset returns where p's payload lies in the server's byte
// stream, and whether the client's stack delivers it at all: a data
// segment from server to client, not a SYN, whose sequence number lies
// within 1 MiB past isn+1 (a wilder one is discarded).
func streamOffset(p *netsim.Packet, client, server netaddr.IP, isn uint32) (int, bool) {
	if p.Src != server || p.Dst != client || p.Proto != netsim.ProtoTCP || len(p.Payload) == 0 ||
		p.Flags&netsim.FlagSYN != 0 {
		return 0, false
	}
	rel := p.Seq - (isn + 1)
	return int(rel), rel <= 1<<20
}

// resizeBody grows or shrinks a body to n bytes, repeating content as
// needed (dynamic pages share structure across fetches).
func resizeBody(b []byte, n int) []byte {
	if n <= 0 {
		return []byte("<html></html>")
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		rest := n - len(out)
		if rest > len(b) {
			rest = len(b)
		}
		if rest == 0 {
			break
		}
		out = append(out, b[:rest]...)
	}
	return out
}
