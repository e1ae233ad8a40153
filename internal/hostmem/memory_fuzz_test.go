package hostmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// A memory program runs on six pages from fuzzBase, with a table of two
// lendable ranges that straddles the edge between the third and fourth.
const (
	fuzzBase   = PageSize
	fuzzPages  = 6
	fuzzBytes  = fuzzPages * PageSize
	winOff     = 2*PageSize + 128 // from fuzzBase
	winStride  = 2048
	winRanges  = 2
	fuzzMemory = fuzzBase + fuzzBytes + PageSize
)

// fuzzLens are the access lengths: a byte, a word, a 128 KiB PRP list, either
// side of a short piece, a page either side of its end, two pages.
var fuzzLens = []int{1, 8, 248, 255, 256, 257, 4095, 4096, 8192}

// fuzzOffsets are the in-page offsets accesses start at: either side of a
// short piece's end and of the page's, and words across each.
var fuzzOffsets = []int{0, 1, 7, 8, 248, 249, 252, 255, 256, 257, 2048, 4088, 4092, 4095}

// memProgram is one memory, its flat reference, and the model of what the
// memory keeps: the highest written end of each page, and the buffer each
// range holds on loan.
type memProgram struct {
	t    *testing.T
	m    *Memory
	w    *Windows // nil until the first loan
	ref  [fuzzBytes]byte
	end  [fuzzPages]int
	lent [winRanges][]byte
	prog []byte
}

func (s *memProgram) next() int {
	if len(s.prog) == 0 {
		return 0
	}
	b := s.prog[0]
	s.prog = s.prog[1:]
	return int(b)
}

// at returns an offset into the six pages where an access of n bytes fits.
func (s *memProgram) at(n int) int {
	a := s.next()%fuzzPages*PageSize + fuzzOffsets[s.next()%len(fuzzOffsets)]
	if a+n > fuzzBytes {
		a = fuzzBytes - n
	}
	return a
}

// loan returns the lent bytes behind n bytes at offset a, nil when they lie
// in pages: the rule Windows documents, written out.
func (s *memProgram) loan(a, n int) []byte {
	d := a - winOff
	if s.w == nil || d < 0 || d >= winRanges*winStride {
		return nil
	}
	buf, off := s.lent[d/winStride], d%winStride
	if off+n > len(buf) {
		return nil
	}
	return buf[off : off+n]
}

// want is what n bytes at offset a read as.
func (s *memProgram) want(a, n int) []byte {
	if b := s.loan(a, n); b != nil {
		return b
	}
	return s.ref[a : a+n]
}

// wrote applies a write of data at offset a to the model.
func (s *memProgram) wrote(a int, data []byte) {
	if b := s.loan(a, len(data)); b != nil {
		copy(b, data)
		return
	}
	copy(s.ref[a:], data)
	for pg := a / PageSize; pg*PageSize < a+len(data); pg++ {
		s.end[pg] = max(s.end[pg], min(a+len(data)-pg*PageSize, PageSize))
	}
}

func (s *memProgram) write() {
	n := fuzzLens[s.next()%len(fuzzLens)]
	a := s.at(n)
	data := make([]byte, n)
	seed := s.next()
	for i := range data {
		data[i] = byte(seed + i*29)
	}
	s.wrote(a, data)
	s.m.Write(fuzzBase+uint64(a), data)
}

func (s *memProgram) writeU64() {
	a := s.at(8)
	v := uint64(s.next())*0x0101010101010101 ^ uint64(a)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.wrote(a, b[:])
	s.m.WriteU64(fuzzBase+uint64(a), v)
}

// lend lends range i a buffer of any length up to the stride, or reclaims
// the one it holds, which must come back as the model has it.
func (s *memProgram) lend() {
	if s.w == nil {
		s.w = s.m.NewWindows(fuzzBase+winOff, winStride, winRanges)
	}
	i := s.next() % winRanges
	if s.lent[i] != nil {
		if got := s.w.Reclaim(i); !bytes.Equal(got, s.lent[i]) {
			s.t.Fatalf("range %d came back as % x…, the model has % x…", i, got[:min(8, len(got))], s.lent[i][:min(8, len(s.lent[i]))])
		}
		s.lent[i] = nil
		return
	}
	n := 1 + (s.next()<<4|s.next()%16)%winStride
	buf := make([]byte, n)
	for j := range buf {
		buf[j] = byte(s.next() + j)
	}
	s.lent[i] = buf
	s.w.Lend(i, bytes.Clone(buf))
}

// read checks n bytes at offset a through Read and, for a word, ReadU64.
func (s *memProgram) read(a, n int) {
	got := make([]byte, n)
	for i := range got {
		got[i] = 0xCC // Read must overwrite every byte
	}
	s.m.Read(fuzzBase+uint64(a), got)
	if want := s.want(a, n); !bytes.Equal(got, want) {
		s.t.Fatalf("Read of %d bytes at +%#x differs from the reference", n, a)
	}
	if n == 8 {
		if got, want := s.m.ReadU64(fuzzBase+uint64(a)), binary.LittleEndian.Uint64(s.want(a, 8)); got != want {
			s.t.Fatalf("ReadU64 at +%#x = %#x, want %#x", a, got, want)
		}
	}
}

// check reads every page whole, all six at once, every aligned word and the
// words across each short piece's end and page edge, then holds the pages to
// the rule: materialised exactly when written, short exactly when every byte
// written lies in the first ShortPage.
func (s *memProgram) check() {
	for pg := 0; pg < fuzzPages; pg++ {
		s.read(pg*PageSize, PageSize)
	}
	s.read(0, fuzzBytes)
	for a := 0; a < fuzzBytes; a += 8 {
		s.read(a, 8)
	}
	for pg := 0; pg < fuzzPages; pg++ {
		for _, off := range []int{shortPage - 4, shortPage - 1, PageSize - 4} {
			if a := pg*PageSize + off; a+8 <= fuzzBytes {
				s.read(a, 8)
			}
		}
	}
	touched := 0
	for pg, end := range s.end {
		want := 0
		switch {
		case end > shortPage:
			want = PageSize
		case end > 0:
			want = shortPage
		}
		if end > 0 {
			touched++
		}
		if got := len(s.m.pages[uint64(fuzzBase/PageSize+pg)]); got != want {
			s.t.Fatalf("page %d, written up to byte %d, keeps %d bytes; want %d", pg, end, got, want)
		}
	}
	if s.m.TouchedPages() != touched {
		s.t.Fatalf("%d pages materialised, %d written", s.m.TouchedPages(), touched)
	}
}

func runMemProgram(t *testing.T, prog []byte) {
	s := &memProgram{t: t, m: New(fuzzMemory), prog: prog}
	for len(s.prog) > 0 {
		// A loan is one step in eight, so a program spends a while on the
		// word accessors' one-lookup path before the table turns it off.
		switch s.next() % 8 {
		case 0, 1:
			s.write()
		case 2:
			n := fuzzLens[s.next()%len(fuzzLens)]
			s.read(s.at(n), n)
		case 3, 4:
			s.writeU64()
		case 5, 6:
			s.read(s.at(8), 8)
		case 7:
			s.lend()
		}
		s.check()
	}
}

// FuzzMemory runs a program of writes and reads at every length in fuzzLens,
// aligned and straddling words, and loans and reclaims of a lendable range
// across a page edge against a flat reference, checking every read path and
// what each page keeps after each step.
func FuzzMemory(f *testing.F) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 16; i++ {
		prog := make([]byte, 20+rng.Intn(120))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runMemProgram)
}
