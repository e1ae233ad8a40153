package chaos

import (
	"bytes"
	"fmt"
)

// Class is the category of a data-integrity violation, as precise as the
// evidence allows. The classes deliberately mirror the injectable data
// hazards so the invariant checker can demand "a fired media-corrupt rule
// produces a Corrupt finding".
type Class uint8

const (
	// ClassCorrupt: the block's bytes match no state the oracle ever wrote —
	// damaged in place.
	ClassCorrupt Class = iota
	// ClassTorn: the block's head holds an acknowledged generation and its
	// tail an earlier state — a write that was acked but only partially
	// persisted.
	ClassTorn
	// ClassMisdirected: the block carries another LBA's valid payload — an
	// address-translation slip.
	ClassMisdirected
	// ClassStale: the block wholly holds a previously-acknowledged
	// generation — a later acknowledged write was lost.
	ClassStale
	// ClassLost: the acknowledged state is simply gone (zeros, or a
	// generation that was never acknowledged).
	ClassLost
)

func (c Class) String() string {
	switch c {
	case ClassCorrupt:
		return "corrupt"
	case ClassTorn:
		return "torn"
	case ClassMisdirected:
		return "misdirected"
	case ClassStale:
		return "stale"
	case ClassLost:
		return "lost"
	}
	return "?"
}

// Violation is one failed read-back check.
type Violation struct {
	Phase  string // workload phase the read belonged to ("churn", "sweep", ...)
	LBA    uint64
	Class  Class
	Want   uint64 // generation the oracle expected (0 = unwritten)
	Got    uint64 // generation observed, when one was decodable
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s lba=%d %s: want gen %d, got %d (%s)",
		v.Phase, v.LBA, v.Class, v.Want, v.Got, v.Detail)
}

// WriteOutcome is how one write episode ended, from the oracle's point of
// view.
type WriteOutcome uint8

const (
	// WriteAcked: the device acknowledged success — the generation is now
	// the required read-back state.
	WriteAcked WriteOutcome = iota
	// WriteFailed: a clean error — the write must NOT be visible.
	WriteFailed
	// WriteInDoubt: the episode ended indeterminate (timed out): the write
	// may or may not have landed, and a zombied attempt may still land
	// later. The LBA is wounded — the oracle refuses further writes to it,
	// because a straggling DMA could otherwise clobber newer data.
	WriteInDoubt
)

// lbaState is one LBA's expected-state bookkeeping.
type lbaState struct {
	acked uint64   // latest acknowledged generation (0 = never acked)
	prevs []uint64 // superseded acknowledged generations, newest last
	doubt []uint64 // in-doubt generations from indeterminate writes
	// wounded marks the LBA unwritable for the rest of the run (an
	// indeterminate write's straggler may still land).
	wounded bool
}

// maxViolations bounds the stored violation list; a thoroughly broken run
// counts the rest in Overflow instead of ballooning the report.
const maxViolations = 256

// keep at most this many superseded generations per LBA for stale/torn
// attribution; the workload rarely rewrites one LBA more often.
const maxPrevs = 4

// Oracle tracks, per LBA, which payload generations a read-back is allowed
// to observe, and classifies every deviation. It is workload-side state —
// it never touches the rig — and is deliberately single-threaded: the
// verify workload partitions LBAs between workers so no LBA ever has two
// concurrent operations.
type Oracle struct {
	seed      int64
	blockSize int
	nextGen   uint64
	lbas      map[uint64]*lbaState
	viols     []Violation
	overflow  int
	inDoubt   uint64

	scratch []byte // synthesis buffer for expected-block comparisons
}

// NewOracle builds an oracle for one run. seed must be the value baked into
// the payload tags; blockSize is the device block size.
func NewOracle(seed int64, blockSize int) *Oracle {
	if blockSize < 2*TagSize {
		panic("chaos: block size too small for tagged payloads")
	}
	return &Oracle{
		seed:      seed,
		blockSize: blockSize,
		lbas:      make(map[uint64]*lbaState),
		scratch:   make([]byte, blockSize),
	}
}

// Seed returns the payload seed the oracle verifies against.
func (o *Oracle) Seed() int64 { return o.seed }

// BeginWrite reserves generations for a write covering [lba, lba+blocks).
// It returns the first generation (block i carries gen+uint64(i)) and false
// when any covered LBA is wounded, in which case the caller must skip the
// write entirely.
func (o *Oracle) BeginWrite(lba uint64, blocks int) (uint64, bool) {
	for i := 0; i < blocks; i++ {
		if st := o.lbas[lba+uint64(i)]; st != nil && st.wounded {
			return 0, false
		}
	}
	gen := o.nextGen + 1
	o.nextGen += uint64(blocks)
	return gen, true
}

// FillPayload writes the tagged payload for [lba, lba+blocks) at the
// generations reserved by BeginWrite into buf.
func (o *Oracle) FillPayload(buf []byte, lba, gen uint64) {
	for off, i := 0, uint64(0); off+o.blockSize <= len(buf); off, i = off+o.blockSize, i+1 {
		FillBlock(buf[off:off+o.blockSize], o.seed, lba+i, gen+i)
	}
}

// EndWrite records how the write episode for [lba, lba+blocks) at gen
// ended.
func (o *Oracle) EndWrite(lba uint64, blocks int, gen uint64, outcome WriteOutcome) {
	for i := 0; i < blocks; i++ {
		st := o.state(lba + uint64(i))
		g := gen + uint64(i)
		switch outcome {
		case WriteAcked:
			if st.acked != 0 {
				st.prevs = append(st.prevs, st.acked)
				if len(st.prevs) > maxPrevs {
					st.prevs = st.prevs[len(st.prevs)-maxPrevs:]
				}
			}
			st.acked = g
		case WriteFailed:
			// A cleanly-failed write must not be visible; nothing to track —
			// observing g later is a violation (ClassLost).
		case WriteInDoubt:
			st.doubt = append(st.doubt, g)
			st.wounded = true
		}
	}
	if outcome == WriteInDoubt {
		o.inDoubt++
	}
}

func (o *Oracle) state(lba uint64) *lbaState {
	st := o.lbas[lba]
	if st == nil {
		st = &lbaState{}
		o.lbas[lba] = st
	}
	return st
}

// CheckRead verifies a read-back of [lba, lba+blocks) against the expected
// state, recording one violation per deviating block. phase labels the
// violations for the report.
func (o *Oracle) CheckRead(phase string, lba uint64, blocks int, buf []byte) {
	for i := 0; i < blocks; i++ {
		off := i * o.blockSize
		if off+o.blockSize > len(buf) {
			return
		}
		o.checkBlock(phase, lba+uint64(i), buf[off:off+o.blockSize])
	}
}

// expected synthesizes the exact bytes (seed, lba, gen) should read back.
func (o *Oracle) expected(lba, gen uint64) []byte {
	FillBlock(o.scratch, o.seed, lba, gen)
	return o.scratch
}

func (o *Oracle) checkBlock(phase string, lba uint64, blk []byte) {
	var st lbaState
	if s := o.lbas[lba]; s != nil {
		st = *s
	}
	// Allowed states: the acknowledged generation (zeros when never acked)
	// plus every in-doubt generation.
	if st.acked != 0 {
		if bytes.Equal(blk, o.expected(lba, st.acked)) {
			return
		}
	} else if allZero(blk) {
		return
	}
	for _, g := range st.doubt {
		if bytes.Equal(blk, o.expected(lba, g)) {
			return
		}
	}

	// Deviation: classify it.
	v := Violation{Phase: phase, LBA: lba, Want: st.acked}
	switch seed, hLBA, hGen, ok := DecodeTag(blk); {
	case allZero(blk):
		v.Class = ClassLost
		v.Detail = "acknowledged data reads back as zeros"
	case !ok:
		v.Class = ClassCorrupt
		v.Detail = "unrecognisable payload (damaged header)"
	case hLBA != lba || seed != o.seed:
		v.Class = ClassMisdirected
		v.Got = hGen
		v.Detail = fmt.Sprintf("holds payload of lba=%d seed=%d", hLBA, seed)
	case bytes.Equal(blk, o.expected(lba, hGen)):
		v.Got = hGen
		if contains(st.prevs, hGen) {
			v.Class = ClassStale
			v.Detail = "superseded generation still visible"
		} else {
			v.Class = ClassLost
			v.Detail = "generation that was never acknowledged"
		}
	case o.tornPattern(lba, blk, hGen, &st):
		v.Class = ClassTorn
		v.Got = hGen
		v.Detail = "head holds the acked generation, tail an earlier state"
	default:
		v.Class = ClassCorrupt
		v.Got = hGen
		v.Detail = "payload bytes match no written state"
	}
	o.record(v)
}

// tornPattern reports whether blk looks like a half-persisted write: its
// first half matches generation hGen and its tail matches some earlier
// state of the LBA (a superseded or in-doubt generation, or unwritten
// zeros). The half boundary mirrors the torn-write fault, which persists
// the first half of the payload.
func (o *Oracle) tornPattern(lba uint64, blk []byte, hGen uint64, st *lbaState) bool {
	half := o.blockSize / 2
	if !bytes.Equal(blk[:half], o.expected(lba, hGen)[:half]) {
		return false
	}
	tail := blk[half:]
	if allZero(tail) {
		return true
	}
	cands := append(append([]uint64{}, st.prevs...), st.doubt...)
	if st.acked != 0 && st.acked != hGen {
		cands = append(cands, st.acked)
	}
	for _, g := range cands {
		if bytes.Equal(tail, o.expected(lba, g)[half:]) {
			return true
		}
	}
	return false
}

func contains(s []uint64, g uint64) bool {
	for _, x := range s {
		if x == g {
			return true
		}
	}
	return false
}

func (o *Oracle) record(v Violation) {
	if len(o.viols) >= maxViolations {
		o.overflow++
		return
	}
	o.viols = append(o.viols, v)
}

// Violations returns the recorded violations in detection order.
func (o *Oracle) Violations() []Violation { return o.viols }

// Overflow returns how many violations were dropped past the storage cap.
func (o *Oracle) Overflow() int { return o.overflow }

// InDoubt returns how many write episodes ended indeterminate.
func (o *Oracle) InDoubt() uint64 { return o.inDoubt }
