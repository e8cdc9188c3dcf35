package iclab

import (
	"bytes"
	"hash/maphash"

	"churntomo/internal/topology"
)

// PathNumbering numbers the distinct AS paths of one record table by a
// byte key that the table's producer derives one-to-one from each path:
// NumberPaths writes the ASNs big-endian, and dataset decode takes the
// path's digits off the record line. Equal keys mean equal paths, and IDs
// run 1.. in the order keys are added; the producer keeps each ID's
// shared path array itself.
//
// The index is an open-addressed table of IDs. Keys are copied into byte
// chunks and listed by ID in fixed blocks, so a numbering allocates no
// string per key and copies no key or list as it grows. The hash seed
// only places IDs in the table: it never changes an ID.
type PathNumbering struct {
	seed  maphash.Seed
	slots []int32 // IDs by their key's hash, 0 where free; a power of two long, at most half full
	// keys lists the keys by ID-1, keyBlock to a block; each key lies in
	// chunk or an earlier chunk.
	keys  [][][]byte
	n     int32
	chunk []byte
}

// keyBlock is the number of keys a block lists, and keyChunk the size of
// the chunks keys are copied into.
const (
	keyBlock = 1024
	keyChunk = 16 << 10
)

// Lookup returns the ID of key, or 0 when it has not been added.
func (n *PathNumbering) Lookup(key []byte) int32 {
	if len(n.slots) == 0 {
		return 0
	}
	mask := len(n.slots) - 1
	for i := int(maphash.Bytes(n.seed, key)) & mask; ; i = (i + 1) & mask {
		if id := n.slots[i]; id == 0 || bytes.Equal(n.key(id), key) {
			return id
		}
	}
}

// Add numbers key, which Lookup has not found, and returns its ID.
func (n *PathNumbering) Add(key []byte) int32 {
	if 2*int(n.n+1) > len(n.slots) {
		n.rehash()
	}
	if cap(n.chunk)-len(n.chunk) < len(key) {
		n.chunk = make([]byte, 0, max(len(key), keyChunk))
	}
	lo := len(n.chunk)
	n.chunk = append(n.chunk, key...)
	if n.n%keyBlock == 0 {
		n.keys = append(n.keys, make([][]byte, 0, keyBlock))
	}
	last := len(n.keys) - 1
	n.keys[last] = append(n.keys[last], n.chunk[lo:len(n.chunk):len(n.chunk)])
	n.n++
	n.place(n.n)
	return n.n
}

// key returns the key of ID id.
func (n *PathNumbering) key(id int32) []byte {
	return n.keys[(id-1)/keyBlock][(id-1)%keyBlock]
}

// place puts id in the first free slot from its key's hash on.
func (n *PathNumbering) place(id int32) {
	mask := len(n.slots) - 1
	i := int(maphash.Bytes(n.seed, n.key(id))) & mask
	for n.slots[i] != 0 {
		i = (i + 1) & mask
	}
	n.slots[i] = id
}

// rehash doubles the table and places every ID again.
func (n *PathNumbering) rehash() {
	if len(n.slots) == 0 {
		n.seed = maphash.MakeSeed()
	}
	n.slots = make([]int32, max(2*len(n.slots), 16))
	for id := range n.n {
		n.place(id + 1)
	}
}

// NumberPaths numbers the AS paths of one record table, given as its
// batches in table order: it sets every record's PathID, overwriting any
// it had, and points the ASPath of every record whose non-empty path was
// seen before at the first such record's array. Empty paths keep their
// own (nil or empty) slice. It returns the number of IDs, so the IDs are
// 1..n.
//
// Every producer of a record table numbers it: measurement and a copy of
// a caller's data through this function, dataset decode as it parses.
// Tests number their fixtures with it.
func NumberPaths(batches ...[]Record) int {
	var (
		n     PathNumbering
		key   []byte
		paths [][]topology.ASN // by ID-1: the first record's path
	)
	for _, batch := range batches {
		for i := range batch {
			r := &batch[i]
			key = key[:0]
			for _, a := range r.ASPath {
				key = append(key, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
			}
			id := n.Lookup(key)
			if id == 0 {
				id = n.Add(key)
				paths = append(paths, r.ASPath)
			} else if p := paths[id-1]; len(p) > 0 {
				r.ASPath = p
			}
			r.PathID = id
		}
	}
	return int(n.n)
}
