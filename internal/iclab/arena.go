package iclab

// Arena carves the slices of a record table's records, paths and acts,
// from shared chunks, so a table's slices cost one allocation per chunk
// instead of one or more per record. A chunk that cannot fit the next
// slice is left to the slices already carved from it. Each slice's
// capacity ends where it does, so an append to one can never write into
// the next. Measurement carves its records' paths from one, and dataset
// decode its records' paths and acts. The zero value is ready to use.
type Arena[T any] struct {
	chunk []T
}

// arenaChunk caps the elements one arena chunk holds. Chunks start small
// and double up to it, so a short table allocates little.
const arenaChunk = 16384

// Take returns a zeroed slice of n elements, nil when n is 0.
func (a *Arena[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, max(n, min(2*cap(a.chunk), arenaChunk), 64))
	}
	lo, hi := len(a.chunk), len(a.chunk)+n
	a.chunk = a.chunk[:hi]
	return a.chunk[lo:hi:hi]
}
