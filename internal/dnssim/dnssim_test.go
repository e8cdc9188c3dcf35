package dnssim

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

func params() Params {
	return Params{
		At:           time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC),
		ClientIP:     netaddr.MustParseIP("20.0.0.5"),
		ResolverIP:   netaddr.MustParseIP("8.8.8.8"),
		Host:         "h.example.com",
		QueryID:      77,
		ResolverDist: 9,
		TrueAnswer:   netaddr.MustParseIP("21.0.0.9"),
		ResolverTTL:  64,
	}
}

func TestSimulateCleanShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var res Result
	Simulate(params(), nil, Noise{}, rng, &res)
	c := res.Capture
	if len(c.Packets) != 2 {
		t.Fatalf("clean lookup has %d packets, want query+answer", len(c.Packets))
	}
	q, err := netsim.UnmarshalDNS(c.Packets[0].Payload)
	if err != nil || q.Response {
		t.Fatalf("first packet not a query: %v %v", q, err)
	}
	a, err := netsim.UnmarshalDNS(c.Packets[1].Payload)
	if err != nil || !a.Response || a.Answer != params().TrueAnswer {
		t.Fatalf("answer wrong: %v %v", a, err)
	}
	if a.ID != q.ID {
		t.Error("query ID mismatch")
	}
	// Resolver answer TTL reflects the hop distance.
	if want := netsim.ArrivalTTL(64, 9); c.Packets[1].TTL != want {
		t.Errorf("answer TTL %d, want %d", c.Packets[1].TTL, want)
	}
}

func TestSimulateInjectionWinsRace(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	inj := []Injector{{ASN: 4134, Dist: 3, Answer: netaddr.MustParseIP("10.0.0.1"), InitTTL: 255}}
	var res Result
	Simulate(params(), inj, Noise{}, rng, &res)
	c := res.Capture
	if len(c.Packets) != 3 {
		t.Fatalf("packets %d, want 3", len(c.Packets))
	}
	first := c.Packets[1] // after the query
	if !first.Injected || first.InjectedBy != 4134 {
		t.Fatalf("injected answer did not arrive first: %+v", first)
	}
	m, _ := netsim.UnmarshalDNS(first.Payload)
	if m.Answer != netaddr.MustParseIP("10.0.0.1") {
		t.Errorf("sinkhole answer wrong: %v", m.Answer)
	}
	if want := netsim.ArrivalTTL(255, 3); first.TTL != want {
		t.Errorf("injected TTL %d, want %d", first.TTL, want)
	}
}

func TestSimulateInjectorBeyondTTLReach(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	// An injector whose TTL cannot reach the client emits nothing.
	inj := []Injector{{ASN: 1, Dist: 70, Answer: 1, InitTTL: 64}}
	var res Result
	Simulate(params(), inj, Noise{}, rng, &res)
	c := res.Capture
	if len(c.Packets) != 2 {
		t.Fatalf("unreachable injector still injected: %d packets", len(c.Packets))
	}
}

// TestSimulateDeterministic: one seed yields one capture, also in a
// Result recycled from a lookup that held more packets and payloads.
func TestSimulateDeterministic(t *testing.T) {
	var a, b Result
	Simulate(params(), nil, Noise{}, rand.New(rand.NewPCG(9, 9)), &a)
	inj := []Injector{{ASN: 1, Dist: 3, Answer: 1, InitTTL: 64}, {ASN: 2, Dist: 5, Answer: 2, InitTTL: 255}}
	Simulate(params(), inj, Noise{DupResponseProb: 1}, rand.New(rand.NewPCG(8, 8)), &b)
	if len(b.Capture.Packets) <= len(a.Capture.Packets) {
		t.Fatalf("the lookup to recycle holds %d packets, the clean one %d", len(b.Capture.Packets), len(a.Capture.Packets))
	}
	Simulate(params(), nil, Noise{}, rand.New(rand.NewPCG(9, 9)), &b)
	if !reflect.DeepEqual(a.Capture, b.Capture) {
		t.Fatalf("a recycled capture differs from a fresh one:\n%v\n%v", b.Capture.Packets, a.Capture.Packets)
	}
}
