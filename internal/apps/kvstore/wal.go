package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"bmstore/internal/apps/logring"
)

// The write-ahead log is a logring.Log on a ring of device blocks after the
// manifest region; recovery replays records with LSN greater than the
// manifest's FlushedLSN, so records already captured by a flushed table are
// never re-applied. A record is crc32(rest) | lsn u64 | klen u32 | vlen u32 |
// key | value; vlen 0xFFFFFFFF marks a tombstone.
const walRecordHeader = 20

// recordLen is the encoded size of one record.
func recordLen(key, value []byte) int { return walRecordHeader + len(key) + len(value) }

// appendRecord encodes one record onto the end of dst.
func appendRecord(dst []byte, lsn uint64, key, value []byte) []byte {
	vlen := uint32(len(value))
	if value == nil {
		vlen = 0xFFFFFFFF
	}
	n := recordLen(key, value)
	dst = slices.Grow(dst, n)
	b := dst[len(dst) : len(dst)+n]
	binary.LittleEndian.PutUint64(b[4:], lsn)
	binary.LittleEndian.PutUint32(b[12:], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[16:], vlen)
	copy(b[walRecordHeader:], key)
	copy(b[walRecordHeader+len(key):], value)
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[4:]))
	return dst[:len(dst)+n]
}

type walRecord struct {
	lsn   uint64
	key   []byte
	value []byte // nil = tombstone
}

// recordEnd returns where the record at b[off:] ends: logring.Short if b ends
// inside it, logring.Bad at the first bytes that are not one (torn write,
// stale bytes, padding).
func recordEnd(b []byte, off int) int {
	if off+walRecordHeader > len(b) {
		return logring.Short
	}
	crc := binary.LittleEndian.Uint32(b[off:])
	klen := binary.LittleEndian.Uint32(b[off+12:])
	vlen := binary.LittleEndian.Uint32(b[off+16:])
	if vlen == 0xFFFFFFFF {
		vlen = 0
	}
	if klen == 0 || klen > 1<<20 || vlen > 1<<24 {
		return logring.Bad
	}
	end := off + walRecordHeader + int(klen) + int(vlen)
	if end > len(b) {
		return logring.Short
	}
	if crc32.ChecksumIEEE(b[off+4:end]) != crc {
		return logring.Bad
	}
	return end
}

// parseRecord splits rec, one whole record recordEnd has vouched for, into
// its fields; key and value are sub-slices of rec. A value of no bytes parses
// as nil, like a tombstone.
func parseRecord(rec []byte) walRecord {
	vstart := walRecordHeader + int(binary.LittleEndian.Uint32(rec[12:]))
	r := walRecord{
		lsn: binary.LittleEndian.Uint64(rec[4:]),
		key: rec[walRecordHeader:vstart:vstart],
	}
	if len(rec) > vstart {
		r.value = rec[vstart:len(rec):len(rec)]
	}
	return r
}

// recordLSN returns the LSN of rec, one whole record.
func recordLSN(rec []byte) uint64 { return parseRecord(rec).lsn }

// nextRecord parses the record at b[off:] and returns it with the offset
// of the one after; ok is false at the first invalid record. The record's
// key and value are sub-slices of b.
func nextRecord(b []byte, off int) (rec walRecord, end int, ok bool) {
	end = recordEnd(b, off)
	if end < 0 {
		return walRecord{}, off, false
	}
	return parseRecord(b[off:end]), end, true
}

// allocator is a simple block-range allocator for table segments.
type allocator struct {
	next uint64
	end  uint64
	free [][2]uint64
}

func newAllocator(start, end uint64) *allocator {
	return &allocator{next: start, end: end}
}

func (a *allocator) alloc(n uint64) (uint64, error) {
	for i, r := range a.free {
		if r[1] >= n {
			base := r[0]
			a.free[i] = [2]uint64{r[0] + n, r[1] - n}
			if a.free[i][1] == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return base, nil
		}
	}
	if a.next+n > a.end {
		return 0, fmt.Errorf("kvstore: device full (%d blocks wanted)", n)
	}
	base := a.next
	a.next += n
	return base, nil
}

func (a *allocator) release(base, n uint64) {
	if n > 0 {
		a.free = append(a.free, [2]uint64{base, n})
	}
}
