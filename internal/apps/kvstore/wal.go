package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"bmstore/internal/apps/logring"
	"bmstore/internal/sim"
)

// wal is the write-ahead log: a ring of device blocks after the manifest
// region. Records carry a monotone LSN and a CRC; appends batch under a
// group-commit window so concurrent writers share one device write, the
// way RocksDB's write group works. Recovery replays records with LSN
// greater than the manifest's FlushedLSN, so records already captured by a
// flushed table are never re-applied.
type wal struct {
	s          *Store
	baseBlock  uint64
	blocks     uint64
	writeBlock uint64

	nextLSN uint64

	// pending is the batch being gathered; spare is the previous batch's
	// buffer, free again once its device write has returned. Records are
	// encoded straight into pending and the batch is padded and written
	// from it, so a record is copied once on its way to the device.
	pending  []byte
	spare    []byte
	waiters  []*sim.Event
	flushing bool
}

// record layout: crc32(rest) | lsn u64 | klen u32 | vlen u32 | key | value.
// vlen 0xFFFFFFFF marks a tombstone.
const walRecordHeader = 20

func newWAL(s *Store, base, blocks uint64) *wal {
	return &wal{s: s, baseBlock: base, blocks: blocks, nextLSN: 1}
}

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

// append adds one record and blocks until it is durable. It returns the
// record's LSN.
func (w *wal) append(p *sim.Proc, key, value []byte) (uint64, error) {
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = appendRecord(w.pending, lsn, key, value)
	ev := w.s.env.NewEvent()
	w.waiters = append(w.waiters, ev)
	if !w.flushing {
		w.flushing = true
		w.s.env.Go("kv/wal", func(fp *sim.Proc) { w.commitLoop(fp) })
	}
	p.Wait(ev)
	return lsn, nil
}

// commitLoop gathers appends for the group-commit window, writes the batch
// in whole blocks (never wrapping mid-batch, so recovery can parse batches
// at block granularity), and wakes every waiter. It runs while anyone waits,
// so a sync that arrives during a batch's write is woken by the next round,
// which writes nothing if no append came.
func (w *wal) commitLoop(p *sim.Proc) {
	defer func() { w.flushing = false }()
	for len(w.pending) > 0 || len(w.waiters) > 0 {
		p.Sleep(groupCommitWait)
		batch := w.pending
		waiters := w.waiters
		w.pending = w.spare[:0]
		w.spare = nil
		w.waiters = nil
		bs := w.s.dev.BlockSize()
		nBlocks := uint64((len(batch) + bs - 1) / bs)
		if nBlocks > w.blocks {
			panic("kvstore: WAL batch larger than the whole ring")
		}
		if nBlocks > 0 {
			if w.writeBlock+nBlocks > w.blocks {
				w.writeBlock = 0 // keep the batch contiguous
			}
			// Zero-pad to whole blocks in place.
			batch = append(batch, make([]byte, int(nBlocks)*bs-len(batch))...)
			if err := w.s.dev.WriteAt(p, w.baseBlock+w.writeBlock, uint32(nBlocks), batch); err == nil {
				w.writeBlock += nBlocks
			}
		}
		w.spare = batch
		for _, ev := range waiters {
			ev.Trigger(nil)
		}
	}
}

// sync waits until everything appended so far is durable.
func (w *wal) sync(p *sim.Proc) error {
	for w.flushing || len(w.pending) > 0 {
		ev := w.s.env.NewEvent()
		w.waiters = append(w.waiters, ev)
		if !w.flushing {
			w.flushing = true
			w.s.env.Go("kv/wal", func(fp *sim.Proc) { w.commitLoop(fp) })
		}
		p.Wait(ev)
	}
	return w.s.dev.Flush(p)
}

// recover replays the ring's records newer than flushedLSN in LSN order.
func (w *wal) recover(p *sim.Proc, flushedLSN uint64) error {
	recs, err := w.scan(p, flushedLSN)
	if err != nil {
		return err
	}
	var maxLSN uint64
	for _, r := range recs {
		if r.lsn <= flushedLSN {
			continue
		}
		w.s.mem.put(r.key, r.value)
		if r.lsn > maxLSN {
			maxLSN = r.lsn
		}
	}
	if maxLSN >= w.nextLSN {
		w.nextLSN = maxLSN + 1
	}
	if flushedLSN >= w.nextLSN {
		w.nextLSN = flushedLSN + 1
	}
	return nil
}

// scan reads the whole ring and returns every record in it sorted by LSN.
// Records newer than flushedLSN carry copies of their key and value; the
// others carry their LSN alone, to sort among the rest exactly as before.
func (w *wal) scan(p *sim.Proc, flushedLSN uint64) ([]walRecord, error) {
	var recs []walRecord
	err := logring.Scan(p, w.s.dev, w.baseBlock, w.blocks, recordEnd, func(rec []byte) {
		r := parseRecord(rec)
		if r.lsn > flushedLSN {
			r.key, r.value = bytes.Clone(r.key), bytes.Clone(r.value)
		} else {
			r.key, r.value = nil, nil
		}
		recs = append(recs, r)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	return recs, nil
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
