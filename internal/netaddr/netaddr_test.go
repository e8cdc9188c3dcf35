package netaddr

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.1.255", "255.255.255.255", "8.8.8.8"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if got := ip.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseIPInvalid(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1..2.3"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestMakeIP(t *testing.T) {
	if got, want := MakeIP(10, 20, 30, 40), MustParseIP("10.20.30.40"); got != want {
		t.Errorf("MakeIP = %v, want %v", got, want)
	}
}

func TestPrefixParseAndContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseIP("10.1.255.255")) {
		t.Error("prefix should contain its broadcast address")
	}
	if p.Contains(MustParseIP("10.2.0.0")) {
		t.Error("prefix should not contain the next /16")
	}
	if got := p.String(); got != "10.1.0.0/16" {
		t.Errorf("String = %q", got)
	}
	if _, err := ParsePrefix("10.1.0.1/16"); err == nil {
		t.Error("host bits set should be rejected")
	}
	if _, err := ParsePrefix("10.1.0.0/33"); err == nil {
		t.Error("length 33 should be rejected")
	}
	if _, err := ParsePrefix("10.1.0.0"); err == nil {
		t.Error("missing slash should be rejected")
	}
	zero := MustParsePrefix("0.0.0.0/0")
	if !zero.Contains(MustParseIP("255.1.2.3")) {
		t.Error("default route should contain everything")
	}
}

func TestPrefixSplit(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	subs := p.Split(2)
	want := []string{"10.0.0.0/10", "10.64.0.0/10", "10.128.0.0/10", "10.192.0.0/10"}
	if len(subs) != len(want) {
		t.Fatalf("Split(2) returned %d prefixes, want %d", len(subs), len(want))
	}
	for i, s := range subs {
		if s.String() != want[i] {
			t.Errorf("sub[%d] = %s, want %s", i, s, want[i])
		}
		if !p.Contains(s.Addr) {
			t.Errorf("sub %s not inside parent %s", s, p)
		}
	}
	for i := 0; i < len(subs); i++ {
		for j := i + 1; j < len(subs); j++ {
			if subs[i].Overlaps(subs[j]) {
				t.Errorf("siblings overlap: %s and %s", subs[i], subs[j])
			}
		}
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("192.168.4.0/24")
	if got := p.Nth(0); got != MustParseIP("192.168.4.0") {
		t.Errorf("Nth(0) = %v", got)
	}
	if got := p.Nth(255); got != MustParseIP("192.168.4.255") {
		t.Errorf("Nth(255) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	p.Nth(256)
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap symmetrically")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestTrieLongestMatch(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 2)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 3)
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 99)

	cases := []struct {
		ip   string
		want int
	}{
		{"10.1.2.3", 3},
		{"10.1.9.9", 2},
		{"10.200.0.1", 1},
		{"8.8.8.8", 99},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseIP(c.ip))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v want %d", c.ip, got, ok, c.want)
		}
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

func TestTrieEmptyAndDelete(t *testing.T) {
	var tr Trie[int]
	if _, ok := tr.Lookup(MustParseIP("1.2.3.4")); ok {
		t.Error("empty trie should miss")
	}
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 7)
	if !tr.Delete(p) {
		t.Error("Delete should report removal")
	}
	if tr.Delete(p) {
		t.Error("second Delete should report absence")
	}
	if _, ok := tr.Lookup(MustParseIP("10.0.0.1")); ok {
		t.Error("deleted prefix still matched")
	}
	if tr.Len() != 0 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if v, _ := tr.Get(p); v != 2 {
		t.Errorf("Get after replace = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", tr.Len())
	}
}

func TestTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	type entry struct {
		p Prefix
		v int
	}
	var entries []entry
	var tr Trie[int]
	for i := 0; i < 300; i++ {
		bits := uint8(rng.IntN(25)) + 8
		p := MakePrefix(IP(rng.Uint32()), bits)
		entries = append(entries, entry{p, i})
		tr.Insert(p, i)
	}
	// Replace duplicates in the linear model the same way Insert does.
	model := map[Prefix]int{}
	for _, e := range entries {
		model[e.p] = e.v
	}
	for i := 0; i < 2000; i++ {
		ip := IP(rng.Uint32())
		bestBits := -1
		bestVal := 0
		for p, v := range model {
			if p.Contains(ip) && int(p.Bits) > bestBits {
				bestBits, bestVal = int(p.Bits), v
			}
		}
		got, ok := tr.Lookup(ip)
		if (bestBits >= 0) != ok {
			t.Fatalf("Lookup(%v) ok=%v, scan found=%v", ip, ok, bestBits >= 0)
		}
		if ok && got != bestVal {
			t.Fatalf("Lookup(%v) = %d, scan = %d", ip, got, bestVal)
		}
	}
}

// Property: masking is idempotent and Contains(Addr) always holds.
func TestPrefixProperties(t *testing.T) {
	f := func(addr uint32, bits uint8) bool {
		p := MakePrefix(IP(addr), bits%33)
		q := MakePrefix(p.Addr, p.Bits)
		return p == q && p.Contains(p.Addr) && p.Overlaps(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	var tr Trie[int]
	for i := 0; i < 10000; i++ {
		tr.Insert(MakePrefix(IP(rng.Uint32()), uint8(rng.IntN(17))+8), i)
	}
	ips := make([]IP, 1024)
	for i := range ips {
		ips[i] = IP(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(ips[i&1023])
	}
}
