package detect

import (
	"math/rand/v2"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/blockpage"
	"churntomo/internal/dnssim"
	"churntomo/internal/httpsim"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

var (
	t0     = time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)
	client = netaddr.MustParseIP("20.0.0.10")
	server = netaddr.MustParseIP("21.5.0.20")
	resolv = netaddr.MustParseIP("8.8.8.8")

	// scratch serves every HTTP analysis of the tests in turn, so each
	// runs in storage an earlier capture left.
	scratch Scratch
)

func dnsParams(id uint16) dnssim.Params {
	return dnssim.Params{
		At: t0, ClientIP: client, ResolverIP: resolv, Host: "x.example.com",
		QueryID: id, ResolverDist: 8, TrueAnswer: netaddr.MustParseIP("21.5.0.20"),
		ResolverTTL: netsim.InitTTLLinux,
	}
}

func TestDNSDualCleanLookup(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var res dnssim.Result
	dnssim.Simulate(dnsParams(7), nil, dnssim.Noise{}, rng, &res)
	c := res.Capture
	if DNSDual(&c, client) {
		t.Error("clean lookup flagged")
	}
}

func TestDNSDualInjection(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	inj := []dnssim.Injector{{ASN: 4134, Dist: 3, Answer: netaddr.MustParseIP("10.10.0.1"), InitTTL: 64}}
	var res dnssim.Result
	dnssim.Simulate(dnsParams(9), inj, dnssim.Noise{}, rng, &res)
	c := res.Capture
	if !DNSDual(&c, client) {
		t.Error("injection not detected")
	}
	// Detector must behave identically without ground-truth annotations.
	s := c.Sanitized()
	if !DNSDual(&s, client) {
		t.Error("detector depends on ground-truth fields")
	}
	// The injected answer must have arrived first (the censor is closer).
	var responses []netsim.Packet
	for _, p := range c.Packets {
		if p.Dst == client {
			responses = append(responses, p)
		}
	}
	if len(responses) < 2 || !responses[0].Injected || responses[1].Injected {
		t.Errorf("race order wrong: %+v", responses)
	}
}

func TestDNSDualSlowInjectorMissed(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	inj := []dnssim.Injector{{ASN: 1, Dist: 3, Answer: 1, InitTTL: 64}}
	var res dnssim.Result
	dnssim.Simulate(dnsParams(11), inj, dnssim.Noise{SlowInjectorProb: 1}, rng, &res)
	c := res.Capture
	if DNSDual(&c, client) {
		t.Error("an answer outside the 2s window should not trigger")
	}
}

func TestDNSDualOrganicDuplicateFalsePositive(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	var res dnssim.Result
	dnssim.Simulate(dnsParams(13), nil, dnssim.Noise{DupResponseProb: 1}, rng, &res)
	c := res.Capture
	if !DNSDual(&c, client) {
		t.Error("organic duplicate within the window should flag (known FP mode)")
	}
}

func httpParams(body []byte) httpsim.Params {
	return httpsim.Params{
		At: t0, ClientIP: client, ServerIP: server, Host: "x.example.com",
		ServerDist: 12, ServerTTL: netsim.InitTTLLinux, Body: body,
	}
}

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func TestHTTPCleanConnection(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 50; i++ {
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(3000)), nil, httpsim.Noise{}, rng, &res)
		v := HTTP(&res.Capture, client, server, &scratch)
		if v.TTL || v.SEQ || v.RST {
			t.Fatalf("clean connection flagged: %+v", v)
		}
		if string(res.Body) != string(body(3000)) {
			t.Fatal("clean body corrupted in reassembly")
		}
	}
}

func TestHTTPRSTInjection(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	detected := 0
	for i := 0; i < 100; i++ {
		inj := []httpsim.Injector{{ASN: 9, Dist: 4, Technique: anomaly.RST, InitTTL: 255, SeqSkew: true}}
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(2000)), inj, httpsim.Noise{}, rng, &res)
		v := HTTP(&res.Capture, client, server, &scratch)
		if v.RST {
			detected++
		}
		if v.TTL {
			t.Fatal("pure RST injection should not trip the (data-only) TTL detector")
		}
	}
	if detected < 95 {
		t.Errorf("RST injection detected only %d/100", detected)
	}
}

func TestHTTPRSTMimicMissed(t *testing.T) {
	// A censor at the same hop distance as the server, using the server's
	// initial TTL and perfect sequence numbers, is indistinguishable.
	rng := rand.New(rand.NewPCG(7, 7))
	p := httpParams(nil) // no body: ISN+1 RST looks like a connection refusal
	inj := []httpsim.Injector{{ASN: 9, Dist: p.ServerDist, Technique: anomaly.RST, InitTTL: netsim.InitTTLLinux, SeqSkew: false}}
	missed := 0
	for i := 0; i < 50; i++ {
		var res httpsim.Result
		httpsim.Simulate(p, inj, httpsim.Noise{}, rng, &res)
		if !HTTP(&res.Capture, client, server, &scratch).RST {
			missed++
		}
	}
	if missed != 50 {
		t.Errorf("perfect mimic was detected %d/50 times; detector is cheating", 50-missed)
	}
}

func TestHTTPSEQInjection(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	seqMimic, ttlMimic, seqCrude, ttlCrude := 0, 0, 0, 0
	for i := 0; i < 200; i++ {
		mimic := i%2 == 0
		inj := []httpsim.Injector{{ASN: 9, Dist: 5, Technique: anomaly.SEQ, InitTTL: 64, MimicTTL: mimic}}
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(2500)), inj, httpsim.Noise{}, rng, &res)
		v := HTTP(&res.Capture, client, server, &scratch)
		if mimic {
			if v.SEQ {
				seqMimic++
			}
			if v.TTL {
				ttlMimic++
			}
		} else {
			if v.SEQ {
				seqCrude++
			}
			if v.TTL {
				ttlCrude++
			}
		}
	}
	if seqMimic < 95 || seqCrude < 95 {
		t.Errorf("SEQ injection detected only %d+%d of 100+100", seqMimic, seqCrude)
	}
	// TTL co-fires only for boxes that do not mimic the server's TTL.
	if ttlMimic > 2 {
		t.Errorf("TTL fired %d/100 for TTL-mimicking boxes", ttlMimic)
	}
	if ttlCrude < 95 {
		t.Errorf("TTL fired only %d/100 for crude boxes", ttlCrude)
	}
}

func TestHTTPTTLDuplicate(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 50; i++ {
		inj := []httpsim.Injector{{ASN: 9, Dist: 4, Technique: anomaly.TTL, InitTTL: 255}}
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(2000)), inj, httpsim.Noise{}, rng, &res)
		v := HTTP(&res.Capture, client, server, &scratch)
		if !v.TTL {
			t.Fatal("TTL duplicate not detected")
		}
		if v.SEQ {
			t.Fatal("content-identical duplicate tripped SEQ")
		}
		if string(res.Body) != string(body(2000)) {
			t.Fatal("TTL duplicate corrupted the delivered body")
		}
	}
}

func TestHTTPBlockpageInPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	db := blockpage.NewFingerprintDB(10, 1.0, 1)
	page := blockpage.Render(3, "GB")
	inj := []httpsim.Injector{{ASN: 9, Dist: 4, Technique: anomaly.Block, InitTTL: 64, InPath: true, Blockpage: page}}
	var res httpsim.Result
	httpsim.Simulate(httpParams(body(4000)), inj, httpsim.Noise{}, rng, &res)
	if string(res.Body) != string(page) {
		t.Error("client did not receive the blockpage")
	}
	if !Blockpage(res.Body, res.BaselineLen, db) {
		t.Error("blockpage not detected")
	}
	v := HTTP(&res.Capture, client, server, &scratch)
	if !v.TTL {
		t.Error("in-path blockpage at different distance should trip TTL")
	}
	if v.SEQ {
		t.Error("in-path blockpage (server silenced) should not trip SEQ")
	}
}

func TestHTTPBlockpageOnPathOverlaps(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	page := blockpage.Render(4, "PL")
	inj := []httpsim.Injector{{ASN: 9, Dist: 4, Technique: anomaly.Block, InitTTL: 255, InPath: false, Blockpage: page}}
	var res httpsim.Result
	httpsim.Simulate(httpParams(body(4000)), inj, httpsim.Noise{}, rng, &res)
	v := HTTP(&res.Capture, client, server, &scratch)
	if !v.SEQ {
		t.Error("on-path blockpage racing the real body should produce overlapping SEQ")
	}
	// First data to arrive wins: the client still sees the blockpage prefix.
	if string(res.Body[:20]) != string(page[:20]) {
		t.Error("blockpage did not win the sequence-space race")
	}
}

func TestBlockpageLengthHeuristicWithoutSignature(t *testing.T) {
	page := blockpage.Render(5, "IR")
	if !Blockpage(page, 9000, blockpage.Empty()) {
		t.Error("length-delta alone should flag a tiny page against a 9KB baseline")
	}
	if Blockpage(body(3000), 3100, blockpage.Empty()) {
		t.Error("ordinary body within 30%% of baseline flagged")
	}
	if Blockpage(nil, 3000, blockpage.Empty()) {
		t.Error("empty body (connection killed) should not count as a blockpage")
	}
}

func TestHTTPOrganicNoiseRates(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	noise := httpsim.DefaultNoise()
	n := 30000
	var ttl, seq, rst int
	for i := 0; i < n; i++ {
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(2000)), nil, noise, rng, &res)
		v := HTTP(&res.Capture, client, server, &scratch)
		if v.TTL {
			ttl++
		}
		if v.SEQ {
			seq++
		}
		if v.RST {
			rst++
		}
	}
	// RST must be the noisiest detector (the paper's Figure 1b finding),
	// and all false-positive rates must stay well under the anomaly rates.
	if rst == 0 {
		t.Error("no organic RST false positives; Figure 1b shape unreproducible")
	}
	if rst < ttl {
		t.Errorf("RST FPs (%d) should be at least TTL FPs (%d)", rst, ttl)
	}
	if frac := float64(rst) / float64(n); frac > 0.02 {
		t.Errorf("RST FP rate %.2f%% implausibly high", 100*frac)
	}
	if seq > n/100 {
		t.Errorf("SEQ FP count %d too high", seq)
	}
}

func TestHTTPSanitizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for i := 0; i < 40; i++ {
		var inj []httpsim.Injector
		if i%2 == 0 {
			inj = []httpsim.Injector{{ASN: 9, Dist: 5, Technique: anomaly.Kind(i % 5), InitTTL: 255, SeqSkew: true, Blockpage: blockpage.Render(1, "CN")}}
		}
		var res httpsim.Result
		httpsim.Simulate(httpParams(body(1500)), inj, httpsim.DefaultNoise(), rng, &res)
		v1 := HTTP(&res.Capture, client, server, &scratch)
		sanitized := res.Capture.Sanitized()
		v2 := HTTP(&sanitized, client, server, &scratch)
		if v1 != v2 {
			t.Fatalf("verdict changed after sanitization: %+v vs %+v", v1, v2)
		}
	}
}

func TestHTTPNoSynack(t *testing.T) {
	var c netsim.Capture
	c.Add(netsim.Packet{Src: server, Dst: client, Proto: netsim.ProtoTCP, Flags: netsim.FlagRST, Seq: 1, TTL: 40})
	if v := HTTP(&c, client, server, &scratch); v.RST || v.TTL || v.SEQ {
		t.Errorf("connection without SYNACK judged: %+v", v)
	}
}
