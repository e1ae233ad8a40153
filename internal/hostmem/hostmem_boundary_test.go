package hostmem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestAccessNearTopOfAddressSpacePanics: an address so high that addr+n
// wraps past 2^64 (a hostile PRP entry) must fail the bounds check like any
// other out-of-range access, not pass it and materialise a page.
func TestAccessNearTopOfAddressSpacePanics(t *testing.T) {
	addr := ^uint64(0) - 100
	for name, access := range map[string]func(*Memory){
		"Read":  func(m *Memory) { m.Read(addr, make([]byte, 4096)) },
		"Write": func(m *Memory) { m.Write(addr, make([]byte, 4096)) },
		// The word accessors check before they look a page up, in a page
		// (addr-3 is 8-aligned) and across two (addr).
		"ReadU64":           func(m *Memory) { m.ReadU64(addr - 3) },
		"WriteU64":          func(m *Memory) { m.WriteU64(addr-3, 1) },
		"ReadU64 straddle":  func(m *Memory) { m.ReadU64(addr&^(PageSize-1) - 4) },
		"WriteU64 straddle": func(m *Memory) { m.WriteU64(addr&^(PageSize-1)-4, 1) },
		"ReadU64 at size":   func(m *Memory) { m.ReadU64(m.size - 7) },
		"WriteU64 at size":  func(m *Memory) { m.WriteU64(m.size-7, 1) },
	} {
		m := New(1 << 20)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "beyond size") {
					t.Errorf("%s at %#x: recovered %q, want a \"beyond size\" panic", name, addr, msg)
				}
			}()
			access(m)
		}()
		if m.TouchedPages() != 0 {
			t.Errorf("%s at %#x materialised %d pages", name, addr, m.TouchedPages())
		}
	}
}

// TestWriteAtPageEdges: writes that end exactly on a page boundary, start
// exactly on one, and straddle three pages must all round-trip, and only
// the pages actually touched may materialise.
func TestWriteAtPageEdges(t *testing.T) {
	m := New(1 << 20)
	base := m.AllocPages(4)

	// Ends exactly at the first page boundary.
	a := make([]byte, 100)
	for i := range a {
		a[i] = 0xA1
	}
	m.Write(base+PageSize-100, a)
	// Starts exactly at the second page boundary.
	b := make([]byte, 100)
	for i := range b {
		b[i] = 0xB2
	}
	m.Write(base+PageSize, b)
	if m.TouchedPages() != 2 {
		t.Fatalf("touched %d pages, want 2", m.TouchedPages())
	}

	got := make([]byte, 200)
	m.Read(base+PageSize-100, got)
	if !bytes.Equal(got[:100], a) || !bytes.Equal(got[100:], b) {
		t.Fatal("boundary-adjacent writes did not round-trip")
	}

	// One write straddling all of pages 2..3 plus the tails of 1.
	c := make([]byte, 2*PageSize+200)
	for i := range c {
		c[i] = byte(i)
	}
	m.Write(base+PageSize-100, c)
	got = make([]byte, len(c))
	m.Read(base+PageSize-100, got)
	if !bytes.Equal(got, c) {
		t.Fatal("straddling write did not round-trip")
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("touched %d pages, want 4", m.TouchedPages())
	}
}

// TestReadZeroFillsHoles: a read crossing an untouched page must fully
// overwrite the destination buffer — the sparse hole reads as zeros even
// into a dirty buffer. The DMA fast path hands pooled (dirty) page buffers
// straight to Read and relies on exactly this.
func TestReadZeroFillsHoles(t *testing.T) {
	m := New(1 << 20)
	base := m.AllocPages(3)
	// Touch pages 0 and 2, leave page 1 a hole.
	edge := []byte{1, 2, 3, 4}
	m.Write(base+PageSize-uint64(len(edge)), edge)
	m.Write(base+2*PageSize, edge)
	if m.TouchedPages() != 2 {
		t.Fatalf("touched %d pages, want 2", m.TouchedPages())
	}

	buf := make([]byte, 3*PageSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	m.Read(base, buf)
	if !bytes.Equal(buf[PageSize-4:PageSize], edge) {
		t.Fatal("page 0 tail lost")
	}
	if !bytes.Equal(buf[2*PageSize:2*PageSize+4], edge) {
		t.Fatal("page 2 head lost")
	}
	for i, v := range buf[PageSize : 2*PageSize] {
		if v != 0 {
			t.Fatalf("hole byte %d = %#x, want 0 (dirty buffer leaked through)", i, v)
		}
	}
	for i, v := range buf[:PageSize-4] {
		if v != 0 {
			t.Fatalf("untouched head byte %d = %#x", i, v)
		}
	}
	// Reading a hole must not materialise it.
	if m.TouchedPages() != 2 {
		t.Fatalf("read materialised pages: %d", m.TouchedPages())
	}
}

// TestAllocEdgeCases: zero align packs byte-tight, an exact fit to the end
// of memory succeeds, and one byte more panics.
func TestAllocEdgeCases(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc(1, 0)
	b := m.Alloc(1, 0)
	if b != a+1 {
		t.Fatalf("align 0 not byte-tight: %#x then %#x", a, b)
	}

	rest := m.size - (b + 1)
	c := m.Alloc(rest, 1)
	if c+rest != m.size {
		t.Fatalf("exact fit ends at %#x, want %#x", c+rest, m.size)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("allocation past the end did not panic")
		}
	}()
	m.Alloc(1, 1)
}

// TestU64AcrossPageBoundary: an 8-byte scalar split 4/4 across two pages
// must round-trip through the per-page copy loop.
func TestU64AcrossPageBoundary(t *testing.T) {
	m := New(1 << 20)
	base := m.AllocPages(2)
	addr := base + PageSize - 4
	const v = uint64(0x1122334455667788)
	m.WriteU64(addr, v)
	if got := m.ReadU64(addr); got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
	// Both halves landed on their own page.
	if m.TouchedPages() != 2 {
		t.Fatalf("touched %d pages, want 2", m.TouchedPages())
	}
}

// TestU64Accessors: ReadU64/WriteU64 take a one-lookup path for a word inside
// a page and the byte path for a word straddling two; either way they agree
// with Read/Write of the eight little-endian bytes, an unmapped page reads 0
// without materialising, and physical address 0 is refused.
func TestU64Accessors(t *testing.T) {
	const v = uint64(0x8877665544332211)
	le := []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}
	for _, tc := range []struct {
		name  string
		off   uint64 // from the base of a three-page run
		pages int    // pages a write there materialises
	}{
		{"start of a page", PageSize, 1},
		{"inside a page, unaligned", PageSize + 13, 1},
		{"last word of a page", 2*PageSize - 8, 1},
		{"one byte into the next page", 2*PageSize - 7, 2},
		{"offset 4092, half and half", 2*PageSize - 4, 2},
		{"last byte in the page before", 2*PageSize - 1, 2},
	} {
		m := New(1 << 20)
		addr := m.AllocPages(3) + tc.off
		if got := m.ReadU64(addr); got != 0 || m.TouchedPages() != 0 {
			t.Errorf("%s: unmapped read = %#x with %d pages touched, want 0 and none", tc.name, got, m.TouchedPages())
		}
		m.WriteU64(addr, v)
		if m.TouchedPages() != tc.pages {
			t.Errorf("%s: write touched %d pages, want %d", tc.name, m.TouchedPages(), tc.pages)
		}
		got := make([]byte, 8)
		m.Read(addr, got)
		if !bytes.Equal(got, le) {
			t.Errorf("%s: WriteU64 stored % x, want % x", tc.name, got, le)
		}
		// And the other way: bytes stored by Write, read back as a word,
		// next to neighbours that must not bleed in.
		m.Write(addr-1, append(append([]byte{0xEE}, le...), 0xEE))
		if got := m.ReadU64(addr); got != v {
			t.Errorf("%s: ReadU64 = %#x, want %#x", tc.name, got, v)
		}
	}

	for name, access := range map[string]func(*Memory){
		"ReadU64":  func(m *Memory) { m.ReadU64(0) },
		"WriteU64": func(m *Memory) { m.WriteU64(0, v) },
	} {
		m := New(1 << 20)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "physical address 0") {
					t.Errorf("%s at 0: recovered %q, want the null-DMA panic", name, msg)
				}
			}()
			access(m)
		}()
		if m.TouchedPages() != 0 {
			t.Errorf("%s at 0 materialised %d pages", name, m.TouchedPages())
		}
	}
}
