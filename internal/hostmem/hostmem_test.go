package hostmem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestReadUntouchedReturnsZeros(t *testing.T) {
	m := New(1 << 20)
	buf := []byte{1, 2, 3, 4}
	m.Read(8192, buf)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("untouched read %v", buf)
	}
	if m.TouchedPages() != 0 {
		t.Fatal("read materialised a page")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New(1 << 20)
	data := []byte("bm-store")
	m.Write(4096, data)
	got := make([]byte, len(data))
	m.Read(4096, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New(1 << 20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize + 100) // unaligned, spans 4 pages
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip failed")
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("touched %d pages, want 4", m.TouchedPages())
	}
}

func TestAllocAlignmentAndUniqueness(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc(100, 64)
	b := m.Alloc(100, 4096)
	c := m.AllocPages(2)
	if a%64 != 0 || b%4096 != 0 || c%4096 != 0 {
		t.Fatalf("misaligned: %#x %#x %#x", a, b, c)
	}
	if a == 0 {
		t.Fatal("allocated address 0")
	}
	if b < a+100 || c < b+100 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(2 * PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("overallocation did not panic")
		}
	}()
	m.Alloc(3*PageSize, 1)
}

func TestNullDMAPanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("write to address 0 did not panic")
		}
	}()
	m.Write(0, []byte{1})
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("out of bounds access did not panic")
		}
	}()
	m.Read((1<<20)-2, make([]byte, 4))
}

func TestU32U64(t *testing.T) {
	m := New(1 << 20)
	m.WriteU64(8192, 0x0123456789abcdef)
	if got := m.ReadU64(8192); got != 0x0123456789abcdef {
		t.Fatalf("u64 %#x", got)
	}
	// Little-endian layout: the low 32-bit half comes first.
	b := make([]byte, 8)
	m.Read(8192, b)
	if lo, hi := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]); lo != 0x89abcdef || hi != 0x01234567 {
		t.Fatalf("not little-endian: %x", b)
	}
}

// Property: any sequence of writes then a full read-back matches a flat
// reference buffer.
func TestMemoryModelProperty(t *testing.T) {
	const space = 1 << 16
	type op struct {
		Addr uint16
		Data []byte
	}
	f := func(ops []op) bool {
		m := New(space + 256)
		ref := make([]byte, space+256)
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			addr := uint64(o.Addr) + 1 // avoid address 0
			m.Write(addr, o.Data)
			copy(ref[addr:], o.Data)
		}
		got := make([]byte, space)
		m.Read(1, got)
		return bytes.Equal(got, ref[1:space+1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
