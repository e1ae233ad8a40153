// Package engine implements the BMS-Engine: the FPGA half of BM-Store. It
// exposes 4 PFs + 124 VFs of standard NVMe controllers to the host (the
// SR-IOV layer), fetches and demultiplexes commands (the target
// controller), translates host LBAs through the chunk mapping table,
// enforces per-namespace QoS, rewrites PRPs with the global-PRP function
// tag so back-end SSD DMA routes straight to host memory (zero-copy), and
// drives the back-end SSDs through per-device queues in chip memory (the
// host adaptor).
package engine

import "fmt"

// Mapping-table geometry from the paper (Fig. 4a): each mapping entry is
// one byte — bits [7:2] the 6-bit physical chunk index ("base LBA") and
// bits [1:0] the 2-bit back-end SSD ID. Each row holds eight entries plus a
// one-byte validation vector whose bit i says entry i is valid.
const (
	EntriesPerRow = 8
	chunkBits     = 6
	ssdBits       = 2
	// MaxChunkIndex is the largest physical chunk index encodable in the
	// 6-bit base-LBA field: 64 chunks of 64 GB = 4 TB per SSD.
	MaxChunkIndex = 1<<chunkBits - 1
	// MaxSSDID is the largest back-end SSD ID encodable in 2 bits.
	MaxSSDID = 1<<ssdBits - 1
)

// Entry is one decoded mapping-table entry.
type Entry struct {
	SSD   int // back-end SSD ID, 0..3
	Chunk int // physical chunk index on that SSD, 0..63
}

func encodeEntry(e Entry) byte {
	return byte(e.Chunk)<<ssdBits | byte(e.SSD)
}

func decodeEntry(b byte) Entry {
	return Entry{SSD: int(b & MaxSSDID), Chunk: int(b >> ssdBits)}
}

// row is one mapping-table row: eight packed entries plus the validation
// vector, exactly as laid out in FPGA block RAM.
type row struct {
	entries [EntriesPerRow]byte
	valid   byte
}

// MappingTable is the per-namespace LBA translation table. Host LBAs are
// divided into fixed-size chunks; logical chunk i lives at row i/8, column
// i%8 (equations 1-2 of the paper), and the entry yields the SSD ID and
// physical chunk (equations 3-4).
type MappingTable struct {
	rows       []row
	chunkBytes uint64
	blockSize  uint64
}

// NewMappingTable returns a table with the given number of rows. chunkBytes
// is the chunk size (64 GB in production; tests shrink it) and blockSize
// the LBA size in bytes.
func NewMappingTable(rows int, chunkBytes, blockSize uint64) *MappingTable {
	if rows <= 0 || chunkBytes == 0 || blockSize == 0 || chunkBytes%blockSize != 0 {
		panic("engine: invalid mapping table geometry")
	}
	return &MappingTable{
		rows:       make([]row, rows),
		chunkBytes: chunkBytes,
		blockSize:  blockSize,
	}
}

// ChunkLBAs returns the number of logical blocks per chunk.
func (mt *MappingTable) ChunkLBAs() uint64 { return mt.chunkBytes / mt.blockSize }

// Slots returns the total number of mapping entries the table can hold.
func (mt *MappingTable) Slots() int { return len(mt.rows) * EntriesPerRow }

// Set installs entry e for logical chunk index idx and marks it valid.
func (mt *MappingTable) Set(idx int, e Entry) error {
	if idx < 0 || idx >= mt.Slots() {
		return fmt.Errorf("engine: chunk index %d out of table range %d", idx, mt.Slots())
	}
	if e.SSD < 0 || e.SSD > MaxSSDID {
		return fmt.Errorf("engine: SSD ID %d does not fit the 2-bit field", e.SSD)
	}
	if e.Chunk < 0 || e.Chunk > MaxChunkIndex {
		return fmt.Errorf("engine: chunk %d does not fit the 6-bit field", e.Chunk)
	}
	r := &mt.rows[idx/EntriesPerRow]
	col := idx % EntriesPerRow
	r.entries[col] = encodeEntry(e)
	r.valid |= 1 << col
	return nil
}

// Valid reports whether logical chunk idx has a valid mapping.
func (mt *MappingTable) Valid(idx int) bool {
	if idx < 0 || idx >= mt.Slots() {
		return false
	}
	return mt.rows[idx/EntriesPerRow].valid&(1<<(idx%EntriesPerRow)) != 0
}

// Get returns the entry for logical chunk idx.
func (mt *MappingTable) Get(idx int) (Entry, bool) {
	if !mt.Valid(idx) {
		return Entry{}, false
	}
	return decodeEntry(mt.rows[idx/EntriesPerRow].entries[idx%EntriesPerRow]), true
}

// Lookup translates a host LBA into (SSD ID, physical LBA) per the paper's
// equations: E=(HL/CS)/EN selects the row, j=(HL/CS) mod EN the column,
// and PL = chunk*CS + HL mod CS.
func (mt *MappingTable) Lookup(hostLBA uint64) (ssdID int, physLBA uint64, err error) {
	cs := mt.ChunkLBAs()
	chunkIdx := int(hostLBA / cs)
	e, ok := mt.Get(chunkIdx)
	if !ok {
		return 0, 0, fmt.Errorf("engine: host LBA %d maps to invalid chunk %d", hostLBA, chunkIdx)
	}
	return e.SSD, uint64(e.Chunk)*cs + hostLBA%cs, nil
}

// Extent is one physically contiguous piece of a host LBA range after
// translation.
type Extent struct {
	SSD     int
	PhysLBA uint64
	HostLBA uint64
	Blocks  uint32
}

// LookupRangeInto translates [hostLBA, hostLBA+blocks) into one extent per
// chunk crossed, appending into out (pass out[:0] to reuse capacity across
// commands on the I/O data path, or nil for a fresh slice). Commands rarely
// cross a 64 GB chunk boundary, but the engine splits them correctly when
// they do.
func (mt *MappingTable) LookupRangeInto(out []Extent, hostLBA uint64, blocks uint32) ([]Extent, error) {
	cs := mt.ChunkLBAs()
	for blocks > 0 {
		ssd, pl, err := mt.Lookup(hostLBA)
		if err != nil {
			return nil, err
		}
		left := cs - hostLBA%cs
		n := uint32(left)
		if uint64(blocks) < left {
			n = blocks
		}
		out = append(out, Extent{SSD: ssd, PhysLBA: pl, HostLBA: hostLBA, Blocks: n})
		hostLBA += uint64(n)
		blocks -= n
	}
	return out, nil
}
