package minidb

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sort"

	"bmstore/internal/apps/logring"
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
}

// groupCommitWait is the redo log's batching window.
const groupCommitWait = 20 * sim.Microsecond

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
		p.Sleep(groupCommitWait)
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
	recs, err := r.scan(p, checkpointLSN)
	if err != nil {
		return err
	}
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

// scan reads the whole ring and returns every record in it sorted by LSN.
// Records newer than checkpointLSN carry a copy of their row image, which the
// tree takes ownership of; the others carry their LSN alone, to sort among
// the rest exactly as before.
func (r *redoLog) scan(p *sim.Proc, checkpointLSN uint64) ([]redoRecord, error) {
	var recs []redoRecord
	err := logring.Scan(p, r.db.dev, r.baseBlock, r.blocks, redoEnd, func(b []byte) {
		rec := redoRecord{lsn: binary.LittleEndian.Uint64(b[4:])}
		if rec.lsn > checkpointLSN {
			rec.key = binary.LittleEndian.Uint64(b[12:])
			rec.row = append([]byte(nil), b[redoHeader:]...)
		}
		recs = append(recs, rec)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	return recs, nil
}
