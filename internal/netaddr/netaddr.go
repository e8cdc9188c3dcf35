package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// MakeIP assembles an address from its four dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netaddr: invalid IPv4 %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netaddr: invalid IPv4 %q", s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP for constant inputs; it panics on error.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Prefix is a CIDR block: the Bits high-order bits of Addr.
type Prefix struct {
	Addr IP
	Bits uint8
}

// MakePrefix masks addr down to bits and returns the canonical prefix.
func MakePrefix(addr IP, bits uint8) Prefix {
	if bits > 32 {
		panic(fmt.Sprintf("netaddr: prefix length %d out of range", bits))
	}
	return Prefix{addr.mask(bits), bits}
}

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netaddr: missing '/' in prefix %q", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix length in %q", s)
	}
	p := Prefix{ip, uint8(bits)}
	if ip.mask(uint8(bits)) != ip {
		return Prefix{}, fmt.Errorf("netaddr: %q has host bits set", s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix for constant inputs; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (ip IP) mask(bits uint8) IP {
	if bits == 0 {
		return 0
	}
	return ip & IP(^uint32(0)<<(32-bits))
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip.mask(p.Bits) == p.Addr
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Bits <= q.Bits {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - p.Bits) }

// Nth returns the i-th address inside the prefix (0 = network address).
// It panics if i is out of range.
func (p Prefix) Nth(i uint64) IP {
	if i >= p.NumAddrs() {
		panic(fmt.Sprintf("netaddr: address index %d out of range for %s", i, p))
	}
	return p.Addr + IP(i)
}

// Split divides the prefix into 2^extra equal sub-prefixes of length
// Bits+extra. It panics if the result would exceed /32.
func (p Prefix) Split(extra uint8) []Prefix {
	newBits := p.Bits + extra
	if newBits > 32 {
		panic(fmt.Sprintf("netaddr: cannot split %s by %d bits", p, extra))
	}
	n := 1 << extra
	out := make([]Prefix, n)
	step := IP(1) << (32 - newBits)
	for i := 0; i < n; i++ {
		out[i] = Prefix{p.Addr + IP(i)*step, newBits}
	}
	return out
}

// Trie maps prefixes to values with longest-prefix-match lookup, the same
// contract as a BGP RIB or the CAIDA IP-to-AS datasets. The zero value is an
// empty trie. V is the mapped value type (an AS number, typically).
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Insert associates p with v, replacing any previous value at exactly p.
func (t *Trie[V]) Insert(p Prefix, v V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for depth := uint8(0); depth < p.Bits; depth++ {
		b := (p.Addr >> (31 - depth)) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = v, true
}

// Delete removes the value at exactly p, reporting whether one was present.
func (t *Trie[V]) Delete(p Prefix) bool {
	n := t.root
	for depth := uint8(0); n != nil && depth < p.Bits; depth++ {
		n = n.child[(p.Addr>>(31-depth))&1]
	}
	if n == nil || !n.set {
		return false
	}
	var zero V
	n.val, n.set = zero, false
	t.size--
	return true
}

// Lookup returns the value of the longest prefix containing ip.
func (t *Trie[V]) Lookup(ip IP) (V, bool) {
	var (
		best  V
		found bool
	)
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.set {
			best, found = n.val, true
		}
		if depth == 32 {
			break
		}
		n = n.child[(ip>>(31-depth))&1]
	}
	return best, found
}

// Get returns the value stored at exactly p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	n := t.root
	for depth := uint8(0); n != nil && depth < p.Bits; depth++ {
		n = n.child[(p.Addr>>(31-depth))&1]
	}
	if n == nil || !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }
