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

// errWrite is a failing write's error, matched by its status.
var errWrite = host.StatusError(nvme.StatusInternal)

// redoTestDB opens a database with a redo ring of redoBlocks blocks on a
// ringDev that fails nothing yet and runs body on it, with the device and the
// block the ring starts at.
func redoTestDB(t *testing.T, redoBlocks uint64, body func(p *sim.Proc, db *DB, dev *ringDev, redoBase uint64)) {
	t.Helper()
	cfg := Config{PoolPages: 64, RedoBytes: redoBlocks * 4096, CheckpointInterval: sim.Second}
	journalBlks := uint64(2*cfg.PoolPages+1024) * blocksPerPage
	env := sim.NewEnv(1)
	dev := newRingDev(env, make([]byte, (superBlocks+journalBlks+redoBlocks+128*blocksPerPage)*4096), 0, 0)
	main := env.Go("test", func(p *sim.Proc) {
		db, err := Open(p, env, dev, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		body(p, db, dev, db.journalBase+db.journalBlks)
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

// TestFailedRedoWriteIsNotAcknowledged: when the device fails a redo batch's
// write, the commits in that batch return the error.
func TestFailedRedoWriteIsNotAcknowledged(t *testing.T) {
	const redoBlocks = 64
	var errs [2]error
	redoTestDB(t, redoBlocks, func(p *sim.Proc, db *DB, dev *ringDev, redoBase uint64) {
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
	redoTestDB(t, redoBlocks, func(p *sim.Proc, db *DB, dev *ringDev, redoBase uint64) {
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
		redoTestDB(t, redoBlocks, func(p *sim.Proc, db *DB, dev *ringDev, base uint64) {
			dev.writes = nil
			tx := db.Begin()
			for k := uint64(1); k <= 3; k++ {
				tx.Write(k, make([]byte, 3000))
			}
			err := tx.Commit(p)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-block", redoBlocks)) {
				t.Errorf("%d-block ring: commit of a 3-block batch returned %v", redoBlocks, err)
			}
			for _, w := range dev.writes {
				if w[0] < base || w[0]+w[1] > base+redoBlocks {
					t.Errorf("%d-block ring: wrote blocks [%d, %d), outside the ring [%d, %d)", redoBlocks, w[0], w[0]+w[1], base, base+redoBlocks)
				}
			}
		})
	}
}
