// Package trace is the determinism-verification layer of the simulator: a
// low-overhead structured event trace that every instrumented component
// (the sim scheduler, the BMS-Engine pipeline, the BMS-Controller, the host
// driver, the SSDs) streams into. Each run folds its canonicalized event
// stream into a single digest, so "same seed, bit-identical behaviour" is a
// checkable property: two runs are equivalent iff their digests match.
//
// The tracer is deliberately dependency-free (virtual timestamps travel as
// plain int64 nanoseconds) so the sim kernel can hold one without an import
// cycle. Instrumentation sites cache a *Tracer and call Emit on it whether
// or not it is nil: a nil tracer is the off switch, and Emit inlines to one
// nil check at the site, the discipline of internal/obs and of the fault
// injector.
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// FNV-64 parameters. The fast path folds whole 64-bit words per multiply
// (with a rotate for cross-bit diffusion) rather than classic byte-at-a-time
// FNV-1a: one multiply per word instead of eight keeps digest-mode overhead
// on a full simulation run within a few percent. The digest prefix "fnv64w"
// names this word-folded variant.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Options configures a Tracer. The zero value is the cheapest useful
// tracer: a word-folded FNV-64 digest and nothing else.
type Options struct {
	// SHA256 switches the digest to SHA-256. Slower, but collision
	// resistance becomes cryptographic — use it when a digest is archived
	// and compared across toolchain versions rather than within one test.
	SHA256 bool
	// Dump, when non-nil, additionally receives one human-readable line
	// per event. Call Flush before reading the destination.
	Dump io.Writer
}

// Tracer accumulates a canonical event stream. It is not safe for
// concurrent use; the simulation kernel's run-to-completion handoff
// guarantees single-threaded access.
type Tracer struct {
	h    uint64    // streaming word-folded FNV-64 state
	sha  hash.Hash // non-nil in SHA-256 mode
	n    uint64    // events folded in
	w    *bufio.Writer
	werr error   // first dump-write error, surfaced by Flush
	buf  [8]byte // scratch for SHA-256 number writes
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	t := &Tracer{h: fnvOffset64}
	if opts.SHA256 {
		t.sha = sha256.New()
	}
	if opts.Dump != nil {
		t.w = bufio.NewWriter(opts.Dump)
	}
	return t
}

// NewDigest returns the default digest-only tracer (word-folded FNV-64, no dump).
func NewDigest() *Tracer { return New(Options{}) }

// Emit folds one event into the digest (and the dump, when enabled). The
// canonical record is (at, subsys, kind, a, b, detail): at is the virtual
// timestamp in nanoseconds, subsys names the emitting component ("sim",
// "engine", "bmsc", "host", "ssd"), kind the event within it, and a/b
// carry event-specific words (sequence numbers, addresses, sizes). detail
// is an optional deterministic string such as a process name or serial.
//
// Callers must only pass values that are pure functions of the simulation
// seed — no pointers, no map-iteration-order-dependent values, no wall
// clock — or the digest stops being a determinism witness.
//
// Emit on a nil tracer does nothing. It is kept small enough to inline, so
// an untraced site costs its arguments and one compare; `make lint` checks
// that it still inlines.
func (t *Tracer) Emit(at int64, subsys, kind string, a, b uint64, detail string) {
	if t != nil {
		t.emit(at, subsys, kind, a, b, detail)
	}
}

func (t *Tracer) emit(at int64, subsys, kind string, a, b uint64, detail string) {
	t.n++
	h := mixU64(t.h, uint64(at))
	h = mixString(h, subsys)
	h = mixString(h, kind)
	h = mixU64(h, a)
	h = mixU64(h, b)
	h = mixString(h, detail)
	t.h = h
	if t.sha != nil {
		t.shaU64(uint64(at))
		t.shaString(subsys)
		t.shaString(kind)
		t.shaU64(a)
		t.shaU64(b)
		t.shaString(detail)
	}
	if t.w != nil {
		if _, err := fmt.Fprintf(t.w, "%12d %-6s %-12s a=%#x b=%#x %s\n", at, subsys, kind, a, b, detail); err != nil && t.werr == nil {
			t.werr = err
		}
	}
}

// mixU64 folds one 64-bit word: rotate, xor, multiply. The rotate is what
// lets a difference confined to the top bits reach the rest of the state on
// the next fold; a bare xor-multiply never diffuses downward.
func mixU64(h, v uint64) uint64 {
	return ((h<<5 | h>>59) ^ v) * fnvPrime64
}

// mixString folds a length-prefixed string in, 16 zero-padded bytes per
// block loaded as two little-endian words (a memmove plus two loads beats a
// per-byte pack loop). The length prefix keeps fields canonical: ("ab","c")
// and ("a","bc") digest differently even though their padded blocks match.
func mixString(h uint64, s string) uint64 {
	h = mixU64(h, uint64(len(s)))
	for {
		var b [16]byte
		copy(b[:], s)
		h = mixU64(h, binary.LittleEndian.Uint64(b[0:]))
		h = mixU64(h, binary.LittleEndian.Uint64(b[8:]))
		if len(s) <= 16 {
			return h
		}
		s = s[16:]
	}
}

func (t *Tracer) shaU64(v uint64) {
	for i := range t.buf {
		t.buf[i] = byte(v >> (8 * i))
	}
	t.sha.Write(t.buf[:])
}

// shaString writes the same length-prefixed canonical form to the SHA-256
// state, so both digest modes agree on event boundaries.
func (t *Tracer) shaString(s string) {
	t.shaU64(uint64(len(s)))
	io.WriteString(t.sha, s)
}

// Events returns how many events have been folded in.
func (t *Tracer) Events() uint64 { return t.n }

// Digest returns the canonical digest of everything emitted so far,
// prefixed with the algorithm name. Emitting after Digest is allowed; the
// digest simply keeps evolving.
func (t *Tracer) Digest() string {
	if t.sha != nil {
		return "sha256:" + hex.EncodeToString(t.sha.Sum(nil))
	}
	return fmt.Sprintf("fnv64w:%016x", t.h)
}

// Flush drains the dump writer, if any. It returns the first error the dump
// destination reported — including write errors swallowed by the buffered
// emit path — so a truncated dump cannot pass silently.
func (t *Tracer) Flush() error {
	if t.w == nil {
		return nil
	}
	err := t.w.Flush()
	if t.werr != nil {
		return t.werr
	}
	return err
}
