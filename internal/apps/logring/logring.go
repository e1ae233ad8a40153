// Package logring is the write-ahead log both applications keep — kvstore's
// WAL and minidb's redo log — as one block ring: Log gathers records under
// group commit, writes each batch to the ring and replays the ring on
// recovery; Scan reads the ring back through one buffer, whatever its size.
// The package also holds the CRC-framed header codec (PutFrame, ReadFrame)
// the applications' manifest, superblock and journal are written in.
//
// A log writes each group-commit batch as records back to back from a block
// boundary, zero-padded to whole blocks, and never wraps a batch round the
// ring. Recovery therefore finds batches by trying each block boundary: a
// batch runs from a boundary record after record until the first bytes that
// are not one (padding, a torn write, a stale batch's remains), and the next
// try is the first boundary after it.
package logring

import (
	"slices"

	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// chunk is the most blocks one read command of a scan covers.
const chunk = 256

// What a log's record decoder reports instead of where a record ends.
const (
	Short = -1 // the bytes end inside the record's header or body
	Bad   = -2 // no record starts here
)

// Scan reads the ring of blocks [base, base+blocks) of dev in order, chunk
// blocks per command, into one buffer, and calls each with every record of
// every batch, in ring order. end(b, off) reports where the record at b[off:]
// ends, Short or Bad. The record passed to each is valid only for the call:
// each copies what it keeps.
//
// Records are decoded one after the other; where none starts, the next try is
// the first block boundary after that point — after a batch, or after a
// boundary that starts none. A record that runs past the chunk read so far is
// carried into the next chunk: its bytes move to the front of the buffer and
// the next chunk is read in after them. Only the ring's end makes Short final.
func Scan(p *sim.Proc, dev host.BlockDevice, base, blocks uint64, end func(b []byte, off int) int, each func(rec []byte)) error {
	bs := dev.BlockSize()
	buf := make([]byte, 0, (chunk+1)*bs)
	from, pos := 0, 0 // ring offsets of buf[0] and of the next record to try
	for blk := uint64(0); blk < blocks; blk += chunk {
		n := int(min(chunk, blocks-blk))
		kept := copy(buf, buf[pos-from:])
		buf, from = slices.Grow(buf[:kept], n*bs)[:kept+n*bs], pos
		if err := dev.ReadAt(p, base+blk, uint32(n), buf[kept:]); err != nil {
			return err
		}
		last := blk+uint64(n) == blocks
		for pos < from+len(buf) {
			e := end(buf, pos-from)
			if e == Short && !last {
				break
			}
			if e < 0 {
				pos = (pos + bs) / bs * bs
				continue
			}
			each(buf[pos-from : e])
			pos = from + e
		}
	}
	return nil
}
