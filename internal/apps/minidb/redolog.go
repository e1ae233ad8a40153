package minidb

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sort"

	"bmstore/internal/sim"
)

// redoLog is the database's write-ahead redo log: a block ring with
// CRC-framed logical records (key + row image) and group commit. The
// design matches the kvstore WAL — batches start at block boundaries, LSNs
// order replay — because both mirror how real engines lay out their logs.
type redoLog struct {
	db         *DB
	baseBlock  uint64
	blocks     uint64
	writeBlock uint64
	nextLSN    uint64

	// pending is the batch being gathered; spare is the previous batch's
	// buffer, free again once its device write has returned. Records are
	// encoded straight into pending and the batch is padded and written
	// from it, so a record is copied once on its way to the device.
	pending  []byte
	spare    []byte
	waiters  []*sim.Event
	flushing bool

	// Commits counts group-commit flushes (observability).
	Commits uint64
}

// crc u32 | lsn u64 | key u64 | rowLen u32.
const redoHeader = 24

type redoRecord struct {
	lsn uint64
	key uint64
	row []byte
}

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

func decodeRedo(b []byte) []redoRecord {
	var out []redoRecord
	off := 0
	for off+redoHeader <= len(b) {
		crc := binary.LittleEndian.Uint32(b[off:])
		lsn := binary.LittleEndian.Uint64(b[off+4:])
		key := binary.LittleEndian.Uint64(b[off+12:])
		rl := binary.LittleEndian.Uint32(b[off+20:])
		if lsn == 0 || rl > PageSize || off+24+int(rl) > len(b) {
			break
		}
		end := off + 24 + int(rl)
		if crc32.ChecksumIEEE(b[off+4:end]) != crc {
			break
		}
		row := append([]byte(nil), b[off+24:end]...) // detach from b, recovery's image of the whole ring; the tree keeps this copy
		out = append(out, redoRecord{lsn: lsn, key: key, row: row})
		off = end
	}
	return out
}

// append logs a row image and returns its LSN without waiting.
func (r *redoLog) append(key uint64, row []byte) uint64 {
	lsn := r.nextLSN
	r.nextLSN++
	r.pending = appendRedo(r.pending, lsn, key, row)
	return lsn
}

// commitWait makes the calling transaction durable: everything appended so
// far is flushed under group commit before it returns.
func (r *redoLog) commitWait(p *sim.Proc) {
	ev := r.db.env.NewEvent()
	r.waiters = append(r.waiters, ev)
	if !r.flushing {
		r.flushing = true
		r.db.env.Go("minidb/redo", func(fp *sim.Proc) { r.flushLoop(fp) })
	}
	p.Wait(ev)
}

func (r *redoLog) flushLoop(p *sim.Proc) {
	defer func() { r.flushing = false }()
	for len(r.pending) > 0 || len(r.waiters) > 0 {
		p.Sleep(r.db.cfg.GroupCommitWait)
		batch := r.pending
		waiters := r.waiters
		r.pending = r.spare[:0]
		r.spare = nil
		r.waiters = nil
		bs := r.db.dev.BlockSize()
		nBlocks := uint64((len(batch) + bs - 1) / bs)
		if nBlocks > 0 {
			if r.writeBlock+nBlocks > r.blocks {
				r.writeBlock = 0
			}
			// Zero-pad to whole blocks in place.
			batch = append(batch, make([]byte, int(nBlocks)*bs-len(batch))...)
			if err := r.db.dev.WriteAt(p, r.baseBlock+r.writeBlock, uint32(nBlocks), batch); err == nil {
				r.writeBlock += nBlocks
			}
			r.Commits++
		}
		r.spare = batch
		for _, ev := range waiters {
			ev.Trigger(nil)
		}
	}
}

// recover replays records with LSN > checkpointLSN, in LSN order, through
// the tree.
func (r *redoLog) recover(p *sim.Proc, checkpointLSN uint64) error {
	bs := r.db.dev.BlockSize()
	ring := make([]byte, r.blocks*uint64(bs))
	const chunk = 256
	for blk := uint64(0); blk < r.blocks; blk += chunk {
		n := uint64(chunk)
		if r.blocks-blk < n {
			n = r.blocks - blk
		}
		if err := r.db.dev.ReadAt(p, r.baseBlock+blk, uint32(n), ring[blk*uint64(bs):(blk+n)*uint64(bs)]); err != nil {
			return err
		}
	}
	var recs []redoRecord
	consumed := make([]bool, r.blocks)
	for blk := uint64(0); blk < r.blocks; blk++ {
		if consumed[blk] {
			continue
		}
		batch := decodeRedo(ring[blk*uint64(bs):])
		if len(batch) == 0 {
			continue
		}
		var n int
		for _, rec := range batch {
			n += 24 + len(rec.row)
		}
		for b := blk; b < blk+uint64((n+bs-1)/bs) && b < r.blocks; b++ {
			consumed[b] = true
		}
		recs = append(recs, batch...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	var maxLSN uint64
	for _, rec := range recs {
		if rec.lsn <= checkpointLSN {
			continue
		}
		if err := r.db.tree.put(p, rec.key, rec.row); err != nil {
			return err
		}
		maxLSN = rec.lsn
	}
	if maxLSN >= r.nextLSN {
		r.nextLSN = maxLSN + 1
	}
	if checkpointLSN >= r.nextLSN {
		r.nextLSN = checkpointLSN + 1
	}
	return nil
}
