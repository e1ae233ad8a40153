package hostmem

// ShortPage and SlabBytes are the prefix rule's two sizes.
const (
	ShortPage = shortPage
	SlabBytes = slabBytes
)

// PageCensus counts the materialised pages by what they keep, and the short
// pieces whole pages replaced that wait to be cut again.
func (m *Memory) PageCensus() (whole, short, loose int) {
	for _, p := range m.pages {
		if len(p) == PageSize {
			whole++
		} else {
			short++
		}
	}
	return whole, short, m.nloose
}

// DropPages forgets what every page holds, and the slab and loose pieces,
// keeping the page map itself: what the pages alone kept alive can then be
// collected.
func (m *Memory) DropPages() {
	for pg := range m.pages {
		m.pages[pg] = nil
	}
	clear(m.loose[:])
	m.slab, m.nloose = nil, 0
}

// WholePageCopy returns a memory holding the same pages, each a whole page:
// the memory as it was before pages kept their used prefix, for a retention
// check to be shown wrong on.
func (m *Memory) WholePageCopy() *Memory {
	c := New(m.size)
	for pg, p := range m.pages {
		w := new([PageSize]byte)
		copy(w[:], p)
		c.pages[pg] = w[:]
	}
	return c
}
