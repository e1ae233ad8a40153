// Package hostmem models host physical memory as seen by DMA engines: a
// sparse, page-granular byte store plus a simple physical allocator. NVMe
// queues, PRP lists, and data buffers all live here, exactly as they do in
// real host DRAM — devices never get Go pointers, only physical addresses.
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
// It is not safe for concurrent use outside the simulation kernel.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	next  uint64 // bump allocator cursor
	size  uint64
	// wins is nil until something lends a buffer: a memory that carries no
	// payload pays one nil compare per access for the mechanism.
	wins []*Windows
}

// New returns a memory of the given size in bytes. Allocations start at
// PageSize (physical page 0 is kept unmapped to catch null DMA).
func New(size uint64) *Memory {
	return &Memory{
		pages: make(map[uint64]*[PageSize]byte),
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
		pg, off := addr/PageSize, addr%PageSize
		p := m.pages[pg]
		if p == nil {
			p = new([PageSize]byte)
			m.pages[pg] = p
		}
		n := copy(p[off:], data)
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
		pg, off := addr/PageSize, addr%PageSize
		var n int
		if p := m.pages[pg]; p != nil {
			n = copy(buf, p[off:])
		} else {
			n = PageSize - int(off)
			if n > len(buf) {
				n = len(buf)
			}
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// WriteU64 stores a little-endian uint64 at addr. A word inside one page —
// every PRP-list slot and queue entry field is — costs one page lookup; a
// word straddling two pages takes the byte path, as does every word of a
// memory that has lent ranges.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	off := addr % PageSize
	if off > PageSize-8 || m.wins != nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		m.Write(addr, b[:])
		return
	}
	m.check(addr, 8)
	p := m.pages[addr/PageSize]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[addr/PageSize] = p
	}
	binary.LittleEndian.PutUint64(p[off:], v)
}

// ReadU64 loads a little-endian uint64 from addr; an untouched page reads 0
// and stays untouched.
func (m *Memory) ReadU64(addr uint64) uint64 {
	off := addr % PageSize
	if off > PageSize-8 || m.wins != nil {
		var b [8]byte
		m.Read(addr, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	m.check(addr, 8)
	p := m.pages[addr/PageSize]
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p[off:])
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
