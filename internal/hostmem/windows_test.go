package hostmem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// winRig is a memory with four two-page ranges three pages apart, the shape
// of a driver queue's slots (data buffer, then a page that is never lent).
func winRig() (*Memory, *Windows, uint64) {
	m := New(1 << 20)
	base := m.AllocPages(12)
	return m, m.NewWindows(base, 3*PageSize, 4), base
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestLentRangeMovesTheBuffersBytes: a DMA inside a lent range reads and
// writes the lender's buffer, touches no page, and the range is ordinary
// memory again — holding what it held before — once the loan ends.
func TestLentRangeMovesTheBuffersBytes(t *testing.T) {
	m, w, base := winRig()
	slot1 := base + 3*PageSize
	under := pattern(2*PageSize, 1)
	m.Write(slot1, under)
	touched := m.TouchedPages()

	buf := pattern(2*PageSize, 100)
	want := bytes.Clone(buf)
	w.Lend(1, buf)
	if !w.Lent(1) || w.Lent(0) {
		t.Fatal("Lent does not report the loan")
	}
	got := make([]byte, PageSize)
	m.Read(slot1+PageSize, got)
	if !bytes.Equal(got, want[PageSize:]) {
		t.Fatal("a read inside the lent range did not return the buffer's bytes")
	}
	in := pattern(100, 200)
	m.Write(slot1+50, in)
	if !bytes.Equal(buf[50:150], in) {
		t.Fatal("a write inside the lent range did not land in the buffer")
	}
	m.WriteU64(slot1+8, 0x1122334455667788)
	if m.ReadU64(slot1+8) != 0x1122334455667788 || buf[8] != 0x88 {
		t.Fatal("the word accessors do not see the lent buffer")
	}
	if m.TouchedPages() != touched {
		t.Fatalf("accesses to a lent range materialised %d pages", m.TouchedPages()-touched)
	}

	if back := w.Reclaim(1); &back[0] != &buf[0] || w.Lent(1) {
		t.Fatal("Reclaim did not hand the buffer back")
	}
	got = make([]byte, 2*PageSize)
	m.Read(slot1, got)
	if !bytes.Equal(got, under) {
		t.Fatal("the pages under the range changed while it was lent")
	}
	if w.Reclaim(1) != nil {
		t.Fatal("a second Reclaim returned a buffer")
	}
}

// TestAccessesTheBufferDoesNotCoverTakeThePagePath: a DMA longer than the
// buffer, one straddling its end, one to the unlent tail of the range, one to
// a neighbouring range with nothing lent and one outside the table all behave
// as if there were no table, and leave the buffer alone.
func TestAccessesTheBufferDoesNotCoverTakeThePagePath(t *testing.T) {
	m, w, base := winRig()
	slot2 := base + 6*PageSize
	buf := pattern(PageSize, 9) // shorter than the range
	kept := bytes.Clone(buf)
	w.Lend(2, buf)
	ref := New(1 << 20) // takes the same writes with no table

	for _, c := range []struct {
		name string
		addr uint64
		n    int
	}{
		{"longer than the buffer", slot2, 2 * PageSize},
		{"straddling the buffer's end", slot2 + PageSize - 16, 32},
		{"the range's unlent tail", slot2 + PageSize, PageSize},
		{"the page between ranges", slot2 + 2*PageSize, PageSize},
		{"a range with nothing lent", base, PageSize},
		{"straddling into the lent range", slot2 - 16, 32},
		{"beyond the table", base + 12*PageSize, 64},
	} {
		data := pattern(c.n, 77)
		m.Write(c.addr, data)
		got := make([]byte, c.n)
		m.Read(c.addr, got)
		if !bytes.Equal(got, data) {
			t.Errorf("%s: read back differs from what was written", c.name)
		}
		if !bytes.Equal(buf, kept) {
			t.Fatalf("%s: the access reached the lent buffer", c.name)
		}
		ref.Write(c.addr, data)
	}
	w.Reclaim(2)
	got, want := make([]byte, 13*PageSize), make([]byte, 13*PageSize)
	m.Read(base, got)
	ref.Read(base, want)
	if !bytes.Equal(got, want) {
		t.Fatal("the pages differ from a table-less memory's after the same writes")
	}
}

func TestLendRejectsASecondLoanAndAnOversizedBuffer(t *testing.T) {
	for name, want := range map[string]string{"second": "already lent", "oversized": "-byte range"} {
		_, w, _ := winRig()
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("%s loan: recovered %q, want %q", name, msg, want)
				}
			}()
			if name == "second" {
				w.Lend(0, make([]byte, 8))
				w.Lend(0, make([]byte, 8))
			} else {
				w.Lend(0, make([]byte, 3*PageSize+1))
			}
		}()
	}
}
