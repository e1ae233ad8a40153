package minidb

import (
	"encoding/binary"
	"hash/crc32"
	"slices"

	"bmstore/internal/apps/logring"
)

// The redo log is a logring.Log on a block ring between the doublewrite
// journal and the pages, with CRC-framed logical records (key + row image);
// recovery replays those newer than the last checkpoint through the tree. A
// record is crc32(rest) u32 | lsn u64 | key u64 | rowLen u32 | row.
const redoHeader = 24

// appendRedo encodes one record onto the end of dst.
func appendRedo(dst []byte, lsn, key uint64, row []byte) []byte {
	n := redoHeader + len(row)
	dst = slices.Grow(dst, n)
	b := dst[len(dst) : len(dst)+n]
	binary.LittleEndian.PutUint64(b[4:], lsn)
	binary.LittleEndian.PutUint64(b[12:], key)
	binary.LittleEndian.PutUint32(b[20:], uint32(len(row)))
	copy(b[redoHeader:], row)
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	return dst[:len(dst)+n]
}

// redoEnd returns where the record at b[off:] ends: logring.Short if b ends
// inside it, logring.Bad at the first bytes that are not one.
func redoEnd(b []byte, off int) int {
	if off+redoHeader > len(b) {
		return logring.Short
	}
	lsn := binary.LittleEndian.Uint64(b[off+4:])
	rl := binary.LittleEndian.Uint32(b[off+20:])
	if lsn == 0 || rl > PageSize {
		return logring.Bad
	}
	end := off + redoHeader + int(rl)
	if end > len(b) {
		return logring.Short
	}
	if crc32.ChecksumIEEE(b[off+4:end]) != binary.LittleEndian.Uint32(b[off:]) {
		return logring.Bad
	}
	return end
}

// redoLSN returns the LSN of rec, one whole record.
func redoLSN(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[4:]) }

// parseRedo splits rec, one whole record redoEnd has vouched for, into its
// key and row image, a sub-slice of rec. A row of no bytes parses as nil, as
// Txn.Write stores it.
func parseRedo(rec []byte) (key uint64, row []byte) {
	if len(rec) > redoHeader {
		row = rec[redoHeader:]
	}
	return binary.LittleEndian.Uint64(rec[12:]), row
}
