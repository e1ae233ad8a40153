// Package trace is the determinism-verification layer of the simulator: a
// low-overhead structured event trace that every instrumented component
// (the sim scheduler, the BMS-Engine pipeline, the BMS-Controller, the host
// driver, the SSDs) streams into. Each run folds the model's records — what
// the host, engine, controller and SSDs did, at which virtual nanosecond —
// into a single digest, so "same seed, bit-identical behaviour" is a
// checkable property: two runs are equivalent iff their digests match. The
// scheduler's own bookkeeping (which queue entry fired, which process was
// spawned, resumed or aborted) says how the model was run, not what it did:
// it goes through Note to the dump, when one is attached, and into no
// digest, so moving a step between a process and a callback moves no digest.
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
	"fmt"
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
// tracer: a word-folded FNV-64 digest and nothing else. The fold is integer
// arithmetic only, so a digest reads the same on every toolchain and can be
// archived as it is.
type Options struct {
	// Dump, when non-nil, additionally receives one human-readable line
	// per record, emitted or noted. Call Flush before reading the
	// destination.
	Dump io.Writer
}

// Tracer accumulates a canonical event stream. It is not safe for
// concurrent use; the simulation kernel's run-to-completion handoff
// guarantees single-threaded access.
type Tracer struct {
	h    uint64 // streaming word-folded FNV-64 state
	n    uint64 // events folded in
	w    *bufio.Writer
	werr error // first dump-write error, surfaced by Flush
}

// New returns a tracer with the given options.
func New(opts Options) *Tracer {
	t := &Tracer{h: fnvOffset64}
	if opts.Dump != nil {
		t.w = bufio.NewWriter(opts.Dump)
	}
	return t
}

// NewDigest returns the default digest-only tracer (word-folded FNV-64, no dump).
func NewDigest() *Tracer { return New(Options{}) }

// Key is a record's subsystem and kind, packed once: build one per call site
// with NewKey (a package-level var) and pass it to every Emit of that
// record. Folding a key's pre-packed words yields exactly the digest that
// folding its two strings would, so a key changes the cost of a record and
// nothing it witnesses.
type Key struct {
	subsys, kind string
	words        []uint64 // the words mixString folds for subsys, then for kind
}

// NewKey returns the key of records (subsys, kind): subsys names the
// emitting component ("sim", "engine", "bmsc", "host", "ssd", "fault"), kind
// the event within it.
func NewKey(subsys, kind string) *Key {
	k := &Key{subsys: subsys, kind: kind}
	k.words = appendStringWords(appendStringWords(nil, subsys), kind)
	return k
}

// Emit folds one event into the digest (and the dump, when enabled). The
// canonical record is (at, subsys, kind, a, b, detail): at is the virtual
// timestamp in nanoseconds, k carries subsys and kind, and a/b carry
// event-specific words (sequence numbers, addresses, sizes). detail is an
// optional deterministic string such as a process name or serial.
//
// Callers must only pass values that are pure functions of the simulation
// seed — no pointers, no map-iteration-order-dependent values, no wall
// clock — or the digest stops being a determinism witness.
//
// Emit on a nil tracer does nothing. It is kept small enough to inline, so
// an untraced site costs its arguments and one compare; `make lint` checks
// that it still inlines.
func (t *Tracer) Emit(at int64, k *Key, a, b uint64, detail string) {
	if t != nil {
		t.emit(at, k, a, b, detail)
	}
}

func (t *Tracer) emit(at int64, k *Key, a, b uint64, detail string) {
	t.n++
	h := mixU64(t.h, uint64(at))
	for _, w := range k.words {
		h = mixU64(h, w)
	}
	h = mixU64(h, a)
	h = mixU64(h, b)
	if detail == "" {
		h = mixU64(mixU64(mixU64(h, 0), 0), 0) // mixString(h, "")
	} else {
		h = mixString(h, detail)
	}
	t.h = h
	if t.w != nil {
		t.write(at, k, a, b, detail)
	}
}

// Note writes one record to the dump, when a dump is attached, and does
// nothing else: the record is not folded into the digest and not counted by
// Events. It is for the kernel's own bookkeeping — which queue entry fired,
// which process was spawned, resumed or aborted — which says how the
// simulation was run, not what the model did, but which a dump reader still
// needs to follow the schedule. Note is kept small enough to inline, so a
// digest-only or nil tracer costs its arguments and two compares; `make lint`
// checks that it still inlines.
func (t *Tracer) Note(at int64, k *Key, a, b uint64, detail string) {
	if t != nil && t.w != nil {
		t.write(at, k, a, b, detail)
	}
}

// write appends one record's line to the dump.
func (t *Tracer) write(at int64, k *Key, a, b uint64, detail string) {
	if _, err := fmt.Fprintf(t.w, "%12d %-6s %-12s a=%#x b=%#x %s\n", at, k.subsys, k.kind, a, b, detail); err != nil && t.werr == nil {
		t.werr = err
	}
}

// mixU64 folds one 64-bit word: rotate, xor, multiply. The rotate is what
// lets a difference confined to the top bits reach the rest of the state on
// the next fold; a bare xor-multiply never diffuses downward.
func mixU64(h, v uint64) uint64 {
	return ((h<<5 | h>>59) ^ v) * fnvPrime64
}

// mixString folds a length-prefixed string in, 16 zero-padded bytes per
// block read as two little-endian words. The length prefix keeps fields
// canonical: ("ab","c") and ("a","bc") digest differently even though their
// padded blocks match. The words are read straight from the string, not
// copied into a padded buffer first: a copy's small stores cannot be
// forwarded to the word loads that follow, and that stall cost more than the
// whole fold.
func mixString(h uint64, s string) uint64 {
	h = mixU64(h, uint64(len(s)))
	for len(s) > 16 {
		h = mixU64(h, le64(s))
		h = mixU64(h, le64(s[8:]))
		s = s[16:]
	}
	if len(s) > 8 {
		return mixU64(mixU64(h, le64(s)), leTail(s[8:]))
	}
	return mixU64(mixU64(h, leTail(s)), 0)
}

// appendStringWords appends the words mixString folds for s, in order.
func appendStringWords(w []uint64, s string) []uint64 {
	w = append(w, uint64(len(s)))
	for len(s) > 16 {
		w = append(w, le64(s), le64(s[8:]))
		s = s[16:]
	}
	if len(s) > 8 {
		return append(w, le64(s), leTail(s[8:]))
	}
	return append(w, leTail(s), 0)
}

// le64 reads s's first eight bytes as a little-endian word; the compiler
// merges the byte loads into one.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// leTail reads up to eight bytes as a little-endian word, zero-padded, in
// two loads that may overlap: a byte both cover lands on the same bits.
func leTail(s string) uint64 {
	n := len(s)
	switch {
	case n >= 4:
		return le32(s) | le32(s[n-4:])<<(8*(n-4))
	case n > 0:
		return uint64(s[0]) | uint64(s[n/2])<<(8*(n/2)) | uint64(s[n-1])<<(8*(n-1))
	}
	return 0
}

// le32 reads s's first four bytes as a little-endian word.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// Events returns how many events have been folded in.
func (t *Tracer) Events() uint64 { return t.n }

// Digest returns the canonical digest of everything emitted so far,
// prefixed with the algorithm name. Emitting after Digest is allowed; the
// digest simply keeps evolving.
func (t *Tracer) Digest() string {
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
