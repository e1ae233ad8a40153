// Package hostmem models physical memory as seen by DMA engines — host DRAM,
// and the engine's chip RAM — as a sparse, page-granular byte store plus a
// simple physical allocator. NVMe queues, PRP lists, and data buffers all
// live here, exactly as they do in real host DRAM — devices never get Go
// pointers, only physical addresses.
//
// A page keeps only what it holds. It materialises on first write, as a
// short piece of its first 256 bytes while every byte written to it lies
// there — a PRP list of a 128 KiB transfer is 248 — and as a whole 4 KiB
// page from the first write past them. The rest of a short page reads as
// zero. Which way a page is kept shows in no address, length or timing.
//
// A payload buffer is the one exception to "bytes live in pages", and it is
// still not a pointer a device sees: a driver may lend a Go buffer to a range
// it owns for the length of one command (Windows), and a DMA that falls
// wholly inside a lent range moves the buffer's bytes instead of the pages'.
// The payload is then copied once, by the DMA, and the pages under a data
// buffer that is always lent never materialise. Addresses, allocation and
// every access outside a lent range are unaffected.
package hostmem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the memory page size (and NVMe MPS), 4 KiB.
const PageSize = 4096

// Memory is a sparse physical address space. Pages materialise on first
// write; reads of untouched memory return zeros, like freshly scrubbed DRAM.
// A page keeps only what it holds: while every byte written to it lies in
// its first shortPage bytes it is a short piece of that length, cut from a
// slab the memory shares out, and the first write past them makes it a whole
// page with the piece copied across. Bytes past a short piece read as zero.
// It is not safe for concurrent use outside the simulation kernel.
type Memory struct {
	pages map[uint64][]byte // a short piece or a whole page, by page number
	next  uint64            // bump allocator cursor
	size  uint64
	// slab is the uncut rest of the slab short pieces come from; loose holds
	// up to a slab's worth of the pieces whole pages replaced, to be cut
	// again first. It is an array so that keeping one allocates nothing.
	slab   []byte
	loose  [slabBytes / shortPage][]byte
	nloose int
	// wins is nil until something lends a buffer: a memory that carries no
	// payload pays one nil compare per access for the mechanism.
	wins []*Windows
}

// shortPage is the length of a short piece: a PRP list of a 128 KiB transfer
// (31 entries, 248 bytes) fits in one, as does a queue ring's first entries.
const shortPage = 256

// slabBytes is the allocation short pieces are cut from, after a first slab
// of one page. Pages never leave a memory and loose pieces are cut first, so
// while no more than a slab's worth wait at once a memory keeps at most one
// slab beyond its pages and loose pieces.
const slabBytes = 8 << 10

// New returns a memory of the given size in bytes. Allocations start at
// PageSize (physical page 0 is kept unmapped to catch null DMA).
func New(size uint64) *Memory {
	return &Memory{
		pages: make(map[uint64][]byte),
		next:  PageSize,
		size:  size,
	}
}

// Alloc reserves size bytes aligned to align (a power of two, at least 1)
// and returns the physical address. Alloc never reuses space; the simulated
// workloads are short enough that a bump allocator suffices, and it keeps
// every address unique, which catches stale-pointer bugs in queue code.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("hostmem: alignment %d not a power of two", align))
	}
	addr := (m.next + align - 1) &^ (align - 1)
	if addr+size > m.size {
		panic(fmt.Sprintf("hostmem: out of memory allocating %d bytes (size %d)", size, m.size))
	}
	m.next = addr + size
	return addr
}

// AllocPages reserves n whole pages and returns the page-aligned address.
func (m *Memory) AllocPages(n int) uint64 {
	return m.Alloc(uint64(n)*PageSize, PageSize)
}

// Write copies data into memory at addr, crossing pages as needed.
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, uint64(len(data)))
	if m.wins != nil {
		if w := m.lent(addr, len(data)); w != nil {
			copy(w, data)
			return
		}
	}
	for len(data) > 0 {
		pg, off := addr/PageSize, int(addr%PageSize)
		n := min(len(data), PageSize-off)
		p := m.pages[pg]
		if off+n > len(p) {
			p = m.grow(pg, p, off+n)
		}
		copy(p[off:], data[:n])
		data = data[n:]
		addr += uint64(n)
	}
}

// Read copies from memory at addr into buf.
func (m *Memory) Read(addr uint64, buf []byte) {
	m.check(addr, uint64(len(buf)))
	if m.wins != nil {
		if w := m.lent(addr, len(buf)); w != nil {
			copy(buf, w)
			return
		}
	}
	for len(buf) > 0 {
		pg, off := addr/PageSize, int(addr%PageSize)
		n := min(len(buf), PageSize-off)
		var c int
		if p := m.pages[pg]; off < len(p) {
			c = copy(buf[:n], p[off:])
		}
		clear(buf[c:n])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// WriteU64 stores a little-endian uint64 at addr. A word inside one page —
// every PRP-list slot and queue entry field is — costs one page lookup; a
// word straddling two pages takes the byte path, as does every word of a
// memory that has lent ranges.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	off := int(addr % PageSize)
	if off > PageSize-8 || m.wins != nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.Write(addr, b[:])
		return
	}
	m.check(addr, 8)
	p := m.pages[addr/PageSize]
	if off+8 > len(p) {
		p = m.grow(addr/PageSize, p, off+8)
	}
	binary.LittleEndian.PutUint64(p[off:], v)
}

// ReadU64 loads a little-endian uint64 from addr; an untouched page reads 0
// and stays untouched. A word across a short piece's end — never an aligned
// one — takes the byte path too.
func (m *Memory) ReadU64(addr uint64) uint64 {
	if off := int(addr % PageSize); off <= PageSize-8 && m.wins == nil {
		m.check(addr, 8)
		p := m.pages[addr/PageSize]
		switch {
		case off+8 <= len(p):
			return binary.LittleEndian.Uint64(p[off:])
		case off >= len(p):
			return 0
		}
	}
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// grow makes page pg, which holds p, long enough for its first end bytes and
// returns it: a new page is a short piece if end allows, and anything longer
// is a whole page with what p held copied across.
func (m *Memory) grow(pg uint64, p []byte, end int) []byte {
	if p == nil && end <= shortPage {
		p = m.shortPiece()
	} else {
		w := new([PageSize]byte)
		copy(w[:], p)
		if p != nil && m.nloose < len(m.loose) {
			m.loose[m.nloose] = p
			m.nloose++
		}
		p = w[:]
	}
	m.pages[pg] = p
	return p
}

// shortPiece returns a zeroed short piece: a loose one if there is one, else
// the next cut of the slab.
func (m *Memory) shortPiece() []byte {
	if m.nloose > 0 {
		m.nloose--
		p := m.loose[m.nloose]
		m.loose[m.nloose] = nil
		clear(p)
		return p
	}
	if len(m.slab) < shortPage {
		n := slabBytes
		if m.slab == nil {
			n = PageSize // the first: a small rig's few pieces cost one page
		}
		m.slab = make([]byte, n)
	}
	p := m.slab[:shortPage:shortPage]
	m.slab = m.slab[shortPage:]
	return p
}

func (m *Memory) check(addr, n uint64) {
	if addr == 0 && n > 0 {
		panic("hostmem: DMA to physical address 0")
	}
	// Not addr+n > m.size: that sum wraps for an address near 2^64.
	if n > m.size || addr > m.size-n {
		panic(fmt.Sprintf("hostmem: access [%#x,%#x) beyond size %#x", addr, addr+n, m.size))
	}
}

// TouchedPages reports how many pages have been materialised; used by tests
// to confirm sparse behaviour.
func (m *Memory) TouchedPages() int { return len(m.pages) }
