package ssd

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzBlocks is the device window a store program runs on: six blocks across
// the boundary between two leaves of the block table.
const (
	fuzzLBA    = leafBlocks - 3
	fuzzBlocks = 6
)

// usedPrefixes are the used prefixes an aligned block write carries: nothing,
// a byte, either side of a granule, either side of half a block, all of it.
var usedPrefixes = []int{0, 1, 511, 512, 513, 2048, 2049, BlockSize}

// storeProgram is one store, its flat reference, and the staging buffers a
// command record carries from one write to the next.
type storeProgram struct {
	t     *testing.T
	d     *SSD
	ref   []byte
	slots [][]byte
	stage []byte // the read path's staging buffer
	prog  []byte
}

func (s *storeProgram) next() int {
	if len(s.prog) == 0 {
		return 0
	}
	b := s.prog[0]
	s.prog = s.prog[1:]
	return int(b)
}

func (s *storeProgram) base() uint64 { return fuzzLBA * BlockSize }

// payload fills b with a block whose used prefix is used bytes long: non-zero
// bytes from a seed up to its last byte, zeroes after.
func payload(b []byte, used, seed int) {
	for i := range b[:used] {
		b[i] = byte(seed + i*31)
	}
	if used > 0 && b[used-1] == 0 {
		b[used-1] = 1
	}
	clear(b[used:])
}

// alignedWrite persists k whole blocks from lba through the write path's
// staging slots; torn persists only the first half. Each fully persisted
// block must have been exchanged (a used prefix over half a block: the slot's
// buffer is the stored block, and the whole block it displaced is the slot's
// next buffer) or copied (the slot keeps its buffer, the store a distinct
// array of the granule-rounded prefix: the LBA's own, if it had that length).
func (s *storeProgram) alignedWrite(torn bool) {
	k := 1 + s.next()%3
	lba := s.next() % (fuzzBlocks - k + 1)
	at := s.base() + uint64(lba)*BlockSize
	bufs := make([][]byte, k)
	used := make([]int, k)
	old := make([][]byte, k)
	for i := range bufs {
		b := s.slots[i]
		if cap(b) < BlockSize {
			b = s.d.wholeArray()
		}
		bufs[i] = b[:BlockSize]
		used[i] = usedPrefixes[s.next()%len(usedPrefixes)]
		payload(bufs[i], used[i], s.next())
		old[i] = s.d.store.get(at/BlockSize + uint64(i))
	}
	staged := append([][]byte(nil), bufs...)
	keep := k * BlockSize
	if torn {
		keep /= 2
	}
	for i, b := range bufs {
		off := i * BlockSize
		if off < keep {
			copy(s.ref[int(at-s.base())+off:], b[:min(BlockSize, keep-off)])
		}
	}
	s.d.persist(at, bufs, keep)
	for i := range bufs {
		s.slots[i] = bufs[i]
		if (i+1)*BlockSize > keep {
			continue
		}
		got := s.d.store.get(at/BlockSize + uint64(i))
		switch u := used[i]; {
		case u > BlockSize/2:
			if !sameArray(got, staged[i]) {
				s.t.Fatalf("block %d (prefix %d): the stored block is not the array the payload was staged in", i, u)
			}
			want := []byte(nil)
			if cap(old[i]) == BlockSize {
				want = old[i]
			}
			if !sameArray(bufs[i], want) {
				s.t.Fatalf("block %d (prefix %d): the slot's next buffer is not the whole block the write displaced", i, u)
			}
		case u == 0:
			if got != nil || !sameArray(bufs[i], staged[i]) {
				s.t.Fatalf("block %d: an all-zero block is stored, or its staging buffer left the slot", i)
			}
		default:
			if !sameArray(bufs[i], staged[i]) || sameArray(got, staged[i]) {
				s.t.Fatalf("block %d (prefix %d): a short block took its staging buffer", i, u)
			}
			want := (u + granule - 1) / granule * granule
			if len(got) != want || cap(got) != want {
				s.t.Fatalf("block %d (prefix %d): stored as %d bytes (cap %d), want %d", i, u, len(got), cap(got), want)
			}
			if cap(old[i]) == want && !sameArray(got, old[i]) {
				s.t.Fatalf("block %d (prefix %d): a rewrite of the same length did not reuse the LBA's array", i, u)
			}
		}
	}
}

// unalignedWrite persists a write whose host buffer starts o bytes into a
// page: its segments straddle blocks, so all of it is copied in.
func (s *storeProgram) unalignedWrite() {
	k := 1 + s.next()%2
	lba := s.next() % (fuzzBlocks - k + 1)
	o := (1 + s.next()%7) * 512
	at := s.base() + uint64(lba)*BlockSize
	lens := []int{BlockSize - o}
	for i := 1; i < k; i++ {
		lens = append(lens, BlockSize)
	}
	lens = append(lens, o)
	bufs := make([][]byte, len(lens))
	off := int(at - s.base())
	for i, n := range lens {
		bufs[i] = make([]byte, n)
		payload(bufs[i], s.next()*17%(n+1), s.next())
		copy(s.ref[off:], bufs[i])
		off += n
	}
	s.d.persist(at, bufs, k*BlockSize)
}

// writeBytes is a partial or unaligned out-of-band write of mostly zeroes.
func (s *storeProgram) writeBytes() {
	at := s.next()*97 + s.next()*13
	n := 1 + s.next()*40
	if at+n > len(s.ref) {
		return
	}
	data := make([]byte, n)
	for i := s.next() % 4; i > 0; i-- {
		data[s.next()*53%n] = byte(s.next() | 1)
	}
	copy(s.ref[at:], data)
	s.d.writeBytes(s.base()+uint64(at), data)
}

func (s *storeProgram) zero() {
	lba := s.next() % fuzzBlocks
	n := s.next() % (fuzzBlocks - lba + 1)
	clear(s.ref[lba*BlockSize : (lba+n)*BlockSize])
	s.d.zeroBlocks(fuzzLBA+uint64(lba), uint64(n))
}

// read checks every read path over n bytes at window offset at against the
// reference: the bytes a DMA takes where they lie, the staged read, a
// corrupted read and a misdirected one (a block on).
func (s *storeProgram) read(at, n int) {
	want := s.ref[at : at+n]
	dev := s.base() + uint64(at)
	if b := s.d.blockBytes(dev, n); b != nil && !bytes.Equal(b, want) {
		s.t.Fatalf("a DMA of %d bytes at +%d would take bytes that differ from the reference", n, at)
	}
	if !bytes.Equal(s.d.readSource(dev, n, false, &s.stage), want) {
		s.t.Fatalf("the read of %d bytes at +%d differs from the reference", n, at)
	}
	bad := bytes.Clone(want)
	bad[n/2] ^= 0xA5
	if !bytes.Equal(s.d.readSource(dev, n, true, &s.stage), bad) {
		s.t.Fatalf("the corrupt read of %d bytes at +%d is not the reference with its middle byte flipped", n, at)
	}
	if at+BlockSize+n <= len(s.ref) {
		if !bytes.Equal(s.d.readSource(dev+BlockSize, n, false, &s.stage), s.ref[at+BlockSize:at+BlockSize+n]) {
			s.t.Fatalf("the misdirected read of %d bytes at +%d is not the next block's bytes", n, at)
		}
	}
}

// check reads every block whole and a few random spans, then holds the table
// to its rule: each block is whole or a short array exactly its granule-rounded
// length, and no array is both a stored block and a staging or spare buffer.
func (s *storeProgram) check() {
	for lba := 0; lba < fuzzBlocks; lba++ {
		s.read(lba*BlockSize, BlockSize)
	}
	for i := 0; i < 3; i++ {
		n := 1 + s.next()*16%BlockSize
		at := s.next() * 89 % (len(s.ref) - n + 1)
		s.read(at, n)
	}
	owner := map[*byte]string{}
	claim := func(b []byte, what string) {
		if cap(b) == 0 {
			return
		}
		p := &b[:1][0]
		if prev, ok := owner[p]; ok {
			s.t.Fatalf("one array is both %s and %s", prev, what)
		}
		owner[p] = what
	}
	for lba := uint64(0); lba < fuzzBlocks; lba++ {
		b := s.d.store.get(fuzzLBA + lba)
		if b == nil {
			continue
		}
		if len(b) != BlockSize && (len(b) == 0 || len(b)%granule != 0 || len(b) > BlockSize/2 || cap(b) != len(b)) {
			s.t.Fatalf("block %d is stored as %d bytes (cap %d)", lba, len(b), cap(b))
		}
		claim(b, "a stored block")
	}
	for _, b := range s.slots {
		claim(b, "a staging buffer")
	}
	for _, b := range s.d.spares {
		claim(b, "a spare")
	}
}

func runStoreProgram(t *testing.T, prog []byte) {
	s := &storeProgram{t: t, d: &SSD{}, ref: make([]byte, fuzzBlocks*BlockSize), slots: make([][]byte, 3), prog: prog}
	for len(s.prog) > 0 {
		switch s.next() % 5 {
		case 0:
			s.alignedWrite(false)
		case 1:
			s.alignedWrite(true)
		case 2:
			s.unalignedWrite()
		case 3:
			s.writeBytes()
		case 4:
			s.zero()
		}
		s.check()
	}
}

// FuzzBlockStore runs a program of aligned whole-block writes (every used
// prefix in usedPrefixes), torn writes, writes from an unaligned host buffer,
// partial and unaligned out-of-band writes, and range zeroes against a flat
// reference, checking every read path and the exchange after each step.
func FuzzBlockStore(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 16; i++ {
		prog := make([]byte, 40+rng.Intn(200))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runStoreProgram)
}
