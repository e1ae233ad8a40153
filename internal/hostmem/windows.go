package hostmem

import "fmt"

// Windows is a row of n address ranges, stride bytes apart from base, each of
// which can be lent one Go buffer at a time — a driver queue's per-slot data
// buffers. While range i is lent buf, a Read or Write that lies wholly inside
// [base+i*stride, +len(buf)) moves buf's bytes; an access that reaches past
// the buffer's end, and every access to a range with nothing lent, goes to
// the pages as if the table were not there. The lender owns buf again once
// it reclaims it: the memory keeps no reference.
type Windows struct {
	base, stride, span uint64
	bufs               [][]byte
}

// NewWindows registers n lendable ranges at base, base+stride, … . A memory
// with many tables finds the one an address belongs to by scanning them, so
// make one per queue, not one per slot.
func (m *Memory) NewWindows(base, stride uint64, n int) *Windows {
	w := &Windows{base: base, stride: stride, span: stride * uint64(n), bufs: make([][]byte, n)}
	m.check(base, w.span)
	m.wins = append(m.wins, w)
	return w
}

// Lend binds buf over the head of range i. A range holds one loan.
func (w *Windows) Lend(i int, buf []byte) {
	if w.bufs[i] != nil {
		panic(fmt.Sprintf("hostmem: range %d at %#x is already lent", i, w.base+uint64(i)*w.stride))
	}
	if uint64(len(buf)) > w.stride {
		panic(fmt.Sprintf("hostmem: %d-byte buffer lent to a %d-byte range", len(buf), w.stride))
	}
	w.bufs[i] = buf
}

// Reclaim ends range i's loan and returns the buffer, nil if there was none.
func (w *Windows) Reclaim(i int) []byte {
	buf := w.bufs[i]
	w.bufs[i] = nil
	return buf
}

// Lent reports whether range i holds a loan.
func (w *Windows) Lent(i int) bool { return w.bufs[i] != nil }

// lent returns the lent bytes behind [addr, addr+n), or nil when any of them
// live in pages.
func (m *Memory) lent(addr uint64, n int) []byte {
	for _, w := range m.wins {
		d := addr - w.base
		if d >= w.span { // also addr < base: the difference wraps
			continue
		}
		buf, off := w.bufs[d/w.stride], d%w.stride
		if off+uint64(n) > uint64(len(buf)) {
			return nil
		}
		return buf[off : off+uint64(n)]
	}
	return nil
}
