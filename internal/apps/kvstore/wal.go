package kvstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

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

// nextRecord parses the record at b[off:] and returns it with the offset
// of the one after; ok is false at the first invalid record (torn write,
// stale bytes, padding). The record's key and value are sub-slices of b.
// A value of no bytes decodes as nil, like a tombstone.
func nextRecord(b []byte, off int) (rec walRecord, end int, ok bool) {
	if off+walRecordHeader > len(b) {
		return walRecord{}, off, false
	}
	crc := binary.LittleEndian.Uint32(b[off:])
	klen := binary.LittleEndian.Uint32(b[off+12:])
	vlen := binary.LittleEndian.Uint32(b[off+16:])
	if vlen == 0xFFFFFFFF {
		vlen = 0
	}
	if klen == 0 || klen > 1<<20 || vlen > 1<<24 ||
		off+walRecordHeader+int(klen)+int(vlen) > len(b) {
		return walRecord{}, off, false
	}
	vstart := off + walRecordHeader + int(klen)
	end = vstart + int(vlen)
	if crc32.ChecksumIEEE(b[off+4:end]) != crc {
		return walRecord{}, off, false
	}
	rec = walRecord{
		lsn: binary.LittleEndian.Uint64(b[off+4:]),
		key: b[off+walRecordHeader : vstart : vstart],
	}
	if vlen > 0 {
		rec.value = b[vstart:end:end]
	}
	return rec, end, true
}

// decodeRecords parses a batch byte stream up to its first invalid record.
// The records alias b.
func decodeRecords(b []byte) []walRecord {
	var out []walRecord
	for off := 0; ; {
		rec, end, ok := nextRecord(b, off)
		if !ok {
			return out
		}
		out = append(out, rec)
		off = end
	}
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
// at block granularity), and wakes every waiter.
func (w *wal) commitLoop(p *sim.Proc) {
	defer func() { w.flushing = false }()
	for len(w.pending) > 0 {
		p.Sleep(w.s.cfg.GroupCommitWait)
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
		if w.writeBlock+nBlocks > w.blocks {
			w.writeBlock = 0 // keep the batch contiguous
		}
		// Zero-pad to whole blocks in place.
		batch = append(batch, make([]byte, int(nBlocks)*bs-len(batch))...)
		if err := w.s.dev.WriteAt(p, w.baseBlock+w.writeBlock, uint32(nBlocks), batch); err == nil {
			w.writeBlock += nBlocks
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

// recover scans the whole ring, collects valid records newer than
// flushedLSN, and replays them in LSN order.
func (w *wal) recover(p *sim.Proc, flushedLSN uint64) error {
	bs := w.s.dev.BlockSize()
	ring := make([]byte, w.blocks*uint64(bs))
	const chunk = 256
	for blk := uint64(0); blk < w.blocks; blk += chunk {
		n := uint64(chunk)
		if w.blocks-blk < n {
			n = w.blocks - blk
		}
		if err := w.s.dev.ReadAt(p, w.baseBlock+blk, uint32(n), ring[blk*uint64(bs):(blk+n)*uint64(bs)]); err != nil {
			return err
		}
	}
	// Batches always start at block boundaries; parse from each boundary
	// not already consumed by a previous batch.
	var recs []walRecord
	consumed := make([]bool, w.blocks)
	for blk := uint64(0); blk < w.blocks; blk++ {
		if consumed[blk] {
			continue
		}
		batch := decodeRecords(ring[blk*uint64(bs):])
		if len(batch) == 0 {
			continue
		}
		var batchBytes int
		for _, r := range batch {
			batchBytes += recordLen(r.key, r.value)
		}
		for b := blk; b < blk+uint64((batchBytes+bs-1)/bs) && b < w.blocks; b++ {
			consumed[b] = true
		}
		recs = append(recs, batch...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
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
