// Package pagebuf is the application tier's free list of fixed-size I/O
// buffers: minidb's page buffers and kvstore's point-lookup block buffers.
// An engine takes a buffer for a device read, and gives it back once nothing
// it holds aliases the bytes any more; the next read lands in it. A list
// keeps at most Cap buffers, so what it holds beyond the engine's working set
// is bounded.
//
// A race-detector build (see poison_race.go) fills every buffer given back
// with Poison, so that a row or value still aliasing a recycled buffer reads
// as garbage in the tests that `make race` runs, not as plausible stale data.
package pagebuf

// Cap is the most buffers a List keeps.
const Cap = 16

// Poison is the byte a race-detector build fills a given-back buffer with.
const Poison = 0xDB

// List recycles buffers of one size. The zero List is not usable: make one
// with New.
type List struct {
	size int
	free [][]byte
}

// New returns an empty list of size-byte buffers.
func New(size int) List { return List{size: size} }

// Get returns a buffer of the list's size. Its bytes are whatever the last
// user left in it (zeros if it is new): the caller overwrites them.
func (l *List) Get() []byte {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return b
	}
	return make([]byte, l.size)
}

// Put gives b, one of the list's buffers, back. Nothing may read or write b
// afterwards. A buffer past Cap is dropped.
func (l *List) Put(b []byte) {
	if Poisoned {
		for i := range b {
			b[i] = Poison
		}
	}
	if len(l.free) < Cap {
		l.free = append(l.free, b)
	}
}
