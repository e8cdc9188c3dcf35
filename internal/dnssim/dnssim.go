package dnssim

import (
	"math/rand/v2"
	"time"

	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

// HopLatency is the simulated one-way per-hop latency. Only ratios matter
// (who wins the race to the client), but realistic magnitudes keep captures
// readable.
const HopLatency = 2 * time.Millisecond

// Params describes one DNS lookup.
type Params struct {
	At           time.Time
	ClientIP     netaddr.IP
	ResolverIP   netaddr.IP
	Host         string
	QueryID      uint16
	ResolverDist int        // hop distance client -> resolver
	TrueAnswer   netaddr.IP // the host's real address
	ResolverTTL  uint8      // initial TTL of the resolver's reply (64/128)
}

// Injector is one on-path DNS injection middlebox.
type Injector struct {
	ASN     uint32
	Dist    int        // hop distance client -> middlebox
	Answer  netaddr.IP // the spoofed A record (sinkhole)
	InitTTL uint8
}

// Noise parameterizes organic imperfections.
type Noise struct {
	// DupResponseProb is the chance the resolver's answer is duplicated
	// (retransmission) — an organic dual response, i.e. a false positive.
	DupResponseProb float64
	// SlowInjectorProb is the chance an injector's answer is delayed past
	// the detection window — a miss.
	SlowInjectorProb float64
}

// Result is one simulated lookup. Simulate fills a caller-owned Result
// and reuses its storage, so one Result can serve lookup after lookup;
// each Simulate overwrites the capture, whose packets and payloads are
// valid only until the next.
type Result struct {
	Capture  netsim.Capture
	payloads []byte // the capture's DNS payloads, back to back
}

// payload appends m's wire form to the Result's payload storage and
// returns it, capped so that no later payload can write into it.
func (res *Result) payload(m netsim.DNSMessage) []byte {
	lo := len(res.payloads)
	res.payloads = netsim.AppendDNS(res.payloads, m)
	return res.payloads[lo:len(res.payloads):len(res.payloads)]
}

// Simulate writes the client-side capture of one lookup into res.
func Simulate(p Params, injectors []Injector, n Noise, rng *rand.Rand, res *Result) {
	c := &res.Capture
	c.Packets, res.payloads = c.Packets[:0], res.payloads[:0]
	query := netsim.Packet{
		At:      p.At,
		Src:     p.ClientIP,
		Dst:     p.ResolverIP,
		TTL:     netsim.InitTTLLinux,
		Proto:   netsim.ProtoUDP,
		SrcPort: uint16(20000 + rng.IntN(40000)),
		DstPort: netsim.DNSPort,
		Payload: res.payload(netsim.DNSMessage{ID: p.QueryID, Host: p.Host}),
	}
	c.Add(query)

	// Injected responses: the middlebox sees the query after Dist hops and
	// its spoofed answer takes Dist hops back.
	for _, inj := range injectors {
		delay := time.Duration(2*inj.Dist) * HopLatency
		if rng.Float64() < n.SlowInjectorProb {
			delay += 3 * time.Second // lost the race badly; outside window
		}
		ttl := netsim.ArrivalTTL(inj.InitTTL, inj.Dist)
		if ttl == 0 {
			continue
		}
		c.Add(netsim.Packet{
			At:         p.At.Add(delay),
			Src:        p.ResolverIP, // spoofed
			Dst:        p.ClientIP,
			TTL:        ttl,
			Proto:      netsim.ProtoUDP,
			SrcPort:    netsim.DNSPort,
			DstPort:    query.SrcPort,
			Payload:    res.payload(netsim.DNSMessage{ID: p.QueryID, Response: true, Host: p.Host, Answer: inj.Answer}),
			Injected:   true,
			InjectedBy: inj.ASN,
		})
	}

	// The real answer. Resolution adds a little server-side latency.
	resolveDelay := time.Duration(2*p.ResolverDist)*HopLatency + time.Duration(rng.IntN(20)+5)*time.Millisecond
	real := netsim.Packet{
		At:      p.At.Add(resolveDelay),
		Src:     p.ResolverIP,
		Dst:     p.ClientIP,
		TTL:     netsim.ArrivalTTL(p.ResolverTTL, p.ResolverDist),
		Proto:   netsim.ProtoUDP,
		SrcPort: netsim.DNSPort,
		DstPort: query.SrcPort,
		Payload: res.payload(netsim.DNSMessage{ID: p.QueryID, Response: true, Host: p.Host, Answer: p.TrueAnswer}),
	}
	c.Add(real)

	// Organic duplicate (retransmitted answer): a benign dual response.
	if rng.Float64() < n.DupResponseProb {
		dup := real
		dup.At = real.At.Add(time.Duration(rng.IntN(800)+50) * time.Millisecond)
		c.Add(dup)
	}

	c.Sort()
}
