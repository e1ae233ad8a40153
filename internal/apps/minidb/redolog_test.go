package minidb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

var errWrite = errors.New("injected write failure")

// faultyDev is a ringDev whose writes to any of the blocks [failFrom,
// failTo) fail after 10 µs, whether a process writes or a caller submits. It
// notes the blocks each write covers. A submitted write fails on env, the
// environment of the last process that read or wrote through the device.
type faultyDev struct {
	ringDev
	env              *sim.Env
	failFrom, failTo uint64
	writes           [][2]uint64 // lba, blocks
}

// fails notes a write and reports whether it fails.
func (d *faultyDev) fails(lba uint64, blocks uint32) bool {
	d.writes = append(d.writes, [2]uint64{lba, uint64(blocks)})
	return lba < d.failTo && d.failFrom < lba+uint64(blocks)
}

func (d *faultyDev) ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error {
	d.env = p.Env()
	return d.ringDev.ReadAt(p, lba, blocks, buf)
}

func (d *faultyDev) WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error {
	d.env = p.Env()
	if d.fails(lba, blocks) {
		p.Sleep(10 * sim.Microsecond)
		return errWrite
	}
	return d.ringDev.WriteAt(p, lba, blocks, data)
}

func (d *faultyDev) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	if op == nvme.IOWrite && d.fails(lba, blocks) {
		d.env.Schedule(10*sim.Microsecond, func() { done(host.IOOutcome{Status: nvme.StatusInternal, Attempts: 1}) })
		return
	}
	d.ringDev.Submit(op, lba, blocks, buf, done)
}

// WriteErr words a failed submitted write as WriteAt does.
func (d *faultyDev) WriteErr(oc host.IOOutcome) error {
	if oc.Status.IsError() {
		return errWrite
	}
	return nil
}

// redoTestDB opens a database with a redo ring of redoBlocks blocks on dev and
// runs body on it, with the block the ring starts at.
func redoTestDB(t *testing.T, dev *faultyDev, redoBlocks uint64, body func(p *sim.Proc, db *DB, redoBase uint64)) {
	t.Helper()
	cfg := Config{PoolPages: 64, RedoBytes: redoBlocks * 4096, CheckpointInterval: sim.Second}
	journalBlks := uint64(2*cfg.PoolPages+1024) * blocksPerPage
	dev.data = make([]byte, (superBlocks+journalBlks+redoBlocks+128*blocksPerPage)*4096)
	env := sim.NewEnv(1)
	main := env.Go("test", func(p *sim.Proc) {
		db, err := Open(p, env, dev, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, db, db.journalBase+db.journalBlks)
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

// TestFailedRedoWriteIsNotAcknowledged: when the device fails a redo batch's
// write, the commits in that batch return the error.
func TestFailedRedoWriteIsNotAcknowledged(t *testing.T) {
	const redoBlocks = 64
	dev := &faultyDev{}
	var errs [2]error
	redoTestDB(t, dev, redoBlocks, func(p *sim.Proc, db *DB, redoBase uint64) {
		dev.failFrom, dev.failTo = redoBase, redoBase+redoBlocks
		other := db.env.Go("other", func(op *sim.Proc) { errs[1] = db.Put(op, 2, []byte("two")) })
		errs[0] = db.Put(p, 1, []byte("one"))
		p.Wait(other.Done())
	})
	for i, err := range errs {
		if !errors.Is(err, errWrite) {
			t.Errorf("commit %d returned %v, want %v", i, err, errWrite)
		}
	}
}

// TestFailedRedoWriteFailsTheDB: a commit whose redo write fails leaves no
// row visible — the DB has failed, and every later read and commit returns
// the error instead of the tree's rows.
func TestFailedRedoWriteFailsTheDB(t *testing.T) {
	const redoBlocks = 64
	dev := &faultyDev{}
	redoTestDB(t, dev, redoBlocks, func(p *sim.Proc, db *DB, redoBase uint64) {
		dev.failFrom, dev.failTo = redoBase, redoBase+redoBlocks
		if err := db.Put(p, 7, []byte("seven")); !errors.Is(err, errWrite) {
			t.Errorf("Put returned %v, want %v", err, errWrite)
		}
		if v, ok, err := db.Begin().Read(p, 7); string(v) == "seven" || !errors.Is(err, errWrite) {
			t.Errorf("after the failed commit Read(7) = %q, %v, %v", v, ok, err)
		}
		if rows, err := db.Begin().ReadRange(p, 0, 10); len(rows) > 0 || !errors.Is(err, errWrite) {
			t.Errorf("after the failed commit ReadRange = %v, %v", rows, err)
		}
		dev.failFrom, dev.failTo = 0, 0
		if err := db.Put(p, 8, []byte("eight")); !errors.Is(err, errWrite) {
			t.Errorf("a later Put returned %v, want %v", err, errWrite)
		}
	})
}

// TestRedoBatchLargerThanTheRing: a commit whose records do not fit the whole
// redo ring returns an error naming the ring's size, and nothing is written
// outside the ring — not into the pages after it.
func TestRedoBatchLargerThanTheRing(t *testing.T) {
	for _, redoBlocks := range []uint64{2, 0} {
		dev := &faultyDev{}
		var base uint64
		redoTestDB(t, dev, redoBlocks, func(p *sim.Proc, db *DB, redoBase uint64) {
			base = redoBase
			dev.writes = nil
			tx := db.Begin()
			for k := uint64(1); k <= 3; k++ {
				tx.Write(k, make([]byte, 3000))
			}
			err := tx.Commit(p)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-block", redoBlocks)) {
				t.Errorf("%d-block ring: commit of a 3-block batch returned %v", redoBlocks, err)
			}
		})
		for _, w := range dev.writes {
			if w[0] < base || w[0]+w[1] > base+redoBlocks {
				t.Errorf("%d-block ring: wrote blocks [%d, %d), outside the ring [%d, %d)", redoBlocks, w[0], w[0]+w[1], base, base+redoBlocks)
			}
		}
	}
}
