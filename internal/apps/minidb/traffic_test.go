package minidb_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// recorder is a host.BlockDevice over dev that folds every call the engine
// makes — (op, lba, blocks, payload), in call order — into h, a SHA-256. A
// write's payload is what the engine handed over, noted at submission; a
// read's is what came back, noted at completion.
type recorder struct {
	host.Parking
	dev host.BlockDevice
	h   hash.Hash
	// journalHeads counts writes to the doublewrite journal's header page:
	// one per checkpoint pass.
	journalHeads int
}

func newRecorder(dev host.BlockDevice, h hash.Hash) *recorder {
	r := &recorder{dev: dev, h: h}
	r.Parking = host.NewParking(r)
	return r
}

func (r *recorder) BlockSize() int         { return r.dev.BlockSize() }
func (r *recorder) CapacityBlocks() uint64 { return r.dev.CapacityBlocks() }
func (r *recorder) PerIOCPU() sim.Time     { return r.dev.PerIOCPU() }

func (r *recorder) note(op byte, lba uint64, blocks uint32, payload []byte) {
	var hdr [13]byte
	hdr[0] = op
	binary.LittleEndian.PutUint64(hdr[1:], lba)
	binary.LittleEndian.PutUint32(hdr[9:], blocks)
	r.h.Write(hdr[:])
	r.h.Write(payload)
}

func (r *recorder) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	switch op {
	case nvme.IORead:
		read := done
		done = func(oc host.IOOutcome) {
			r.note('R', lba, blocks, buf)
			read(oc)
		}
	case nvme.IOWrite:
		if lba == 8 { // superblock region is 8 blocks; the journal header follows
			r.journalHeads++
		}
		r.note('W', lba, blocks, buf)
	default:
		r.note('F', 0, 0, nil)
	}
	r.dev.Submit(op, lba, blocks, buf, done)
}

// minidbTrafficSHA256 is the digest of the script below, taken on the
// commit before the application tier stopped re-copying page images
// (PR 16's parent). The engine may change how it holds pages in memory; the
// device must see the same bytes in the same order.
const minidbTrafficSHA256 = "aa3296d0dd4c2f40a0ca3cc0ceef8e7a529506843b3457a06330fa07aebf64f3"

// TestDeviceTrafficUnchanged drives one seeded script over everything that
// produces device I/O — loads with splits and pool pressure, concurrent
// committers sharing redo batches, scans and point reads that fault,
// forced and pressure checkpoints, a checkpoint too large for one journal
// pass, and a crash reopen that replays redo — and pins the hash of the
// traffic.
func TestDeviceTrafficUnchanged(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		cfg := dbCfg()
		cfg.CheckpointInterval = 3600 * sim.Second // only forced and pressure checkpoints
		rec := newRecorder(r.drv.BlockDev(0), sha256.New())
		db, err := minidb.Open(p, r.env, rec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1606))
		model := map[uint64][]byte{}
		var forced uint64
		bigRow := func() []byte {
			b := make([]byte, 3000+rng.Intn(1000))
			rng.Read(b)
			return b
		}
		// Pressure and multi-pass checkpoints happen only here, so the
		// pool's dirty-frame count is recounted here too, at every commit.
		commit := func(tx *minidb.Txn) {
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
			if tracked, counted := db.DirtyFrames(); tracked != counted {
				t.Fatalf("pool tracks %d dirty frames, a recount finds %d", tracked, counted)
			}
		}
		checkpoint := func() {
			forced++
			if err := db.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
		}

		// Load: ~4 big rows a leaf, 50 rows a transaction, scattered keys.
		const nBig = 6000
		for i := 0; i < nBig; i += 50 {
			tx := db.Begin()
			for j := i; j < i+50; j++ {
				k := uint64((j * 7919) % nBig)
				v := bigRow()
				tx.Write(k, v)
				model[k] = v
			}
			commit(tx)
		}
		checkpoint()
		if db.Stats.Checkpoints <= forced {
			t.Fatalf("load of %d rows through a %d-page pool raised no pressure checkpoint", nBig, cfg.PoolPages)
		}

		// Small rows beside the big ones, from concurrent committers.
		var done []*sim.Event
		for w := 0; w < 4; w++ {
			w := w
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			done = append(done, r.env.Go(fmt.Sprintf("w%d", w), func(wp *sim.Proc) {
				for i := 0; i < 300; i++ {
					tx := db.Begin()
					k := uint64(1_000_000 + w*10_000 + wrng.Intn(2000))
					tx.Write(k, row(int(k)+i))
					tx.Write(k+5_000_000, row(i))
					if err := tx.Commit(wp); err != nil {
						t.Errorf("commit: %v", err)
					}
				}
			}).Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}

		// Reads and scans, most of them faulting.
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(nBig))
			v, ok, err := db.Begin().Read(p, k)
			if err != nil || !ok || !bytes.Equal(v, model[k]) {
				t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
			}
			if i%8 == 0 {
				rows, err := db.Begin().ReadRange(p, k, 1+rng.Intn(12))
				if err != nil || len(rows) == 0 || rows[0].Key != k || !bytes.Equal(rows[0].Data, v) {
					t.Fatalf("scan from %d: %d rows, err=%v", k, len(rows), err)
				}
			}
		}
		checkpoint()

		// One transaction that dirties more leaves than the journal holds:
		// the writer lock keeps the checkpointer out until the commit, and
		// the next checkpoint needs two passes. (Short rows: a commit's redo
		// batch is one device write and must stay under the driver's 1 MiB.)
		passesBefore, ckptsBefore := rec.journalHeads, db.Stats.Checkpoints
		tx := db.Begin()
		for k := uint64(0); k < nBig; k += 3 {
			v := bigRow()[:400]
			tx.Write(k, v)
			model[k] = v
		}
		commit(tx)
		checkpoint()
		if passes, ckpts := rec.journalHeads-passesBefore, int(db.Stats.Checkpoints-ckptsBefore); passes <= ckpts {
			t.Fatalf("%d checkpoints took %d journal passes: no multi-pass checkpoint", ckpts, passes)
		}

		// Updates that live only in redo and the pool, then a crash.
		for i := 0; i < 500; i++ {
			k := uint64(rng.Intn(nBig))
			v := row(i)
			if err := db.Put(p, k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		rec2 := newRecorder(r.drv.BlockDev(1), rec.h)
		db2, err := minidb.Open(p, r.env, rec2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < nBig; k += 7 {
			v, ok, err := db2.Begin().Read(p, k)
			if err != nil || !ok || !bytes.Equal(v, model[k]) {
				t.Fatalf("after crash: get %d: ok=%v err=%v", k, ok, err)
			}
		}
		for i := 0; i < 200; i++ {
			k := uint64(rng.Intn(nBig))
			if err := db2.Put(p, k, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db2.Checkpoint(p); err != nil {
			t.Fatal(err)
		}

		if got := hex.EncodeToString(rec.h.Sum(nil)); got != minidbTrafficSHA256 {
			t.Fatalf("device traffic digest %s, want %s", got, minidbTrafficSHA256)
		}
	})
}
