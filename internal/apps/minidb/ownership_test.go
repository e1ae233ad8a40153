package minidb_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/sim"
)

// versioned is row key at version ver: the two numbers, then a filler whose
// length and bytes both follow from them, so that a row holding another
// row's bytes, a torn copy or recycled-buffer poison does not verify.
// Versions come in pairs of one length: every other update rewrites a row in
// place, and the rest replace it.
func versioned(key uint64, ver int) []byte {
	r := binary.BigEndian.AppendUint64(nil, key)
	r = binary.BigEndian.AppendUint32(r, uint32(ver))
	for j := 0; j < 60+ver/2%2*40; j++ {
		r = append(r, byte(int(key)*31+ver*7+j))
	}
	return r
}

// versionOf checks that row is versioned(key, ver) for some ver, and
// returns it.
func versionOf(t *testing.T, key uint64, row []byte) int {
	t.Helper()
	if len(row) < 12 {
		t.Fatalf("key %d: row %x", key, row)
	}
	ver := int(binary.BigEndian.Uint32(row[8:]))
	if !bytes.Equal(row, versioned(key, ver)) {
		t.Fatalf("key %d: row %x is not a version of it", key, row)
	}
	return ver
}

// TestConcurrentTxnsMatchModel drives concurrent transactions — point reads,
// range scans, updates and inserts that split leaves — with periodic,
// pressure and forced checkpoints through a 16-page pool, so that pages are
// evicted and their buffers recycled all the time, and checks every result
// against a model. The low three quarters of the keys are loaded first, and
// the rest inserted as the run goes; each writer owns a share of the keys,
// so its own reads are exact. Any other read must find a key that was present when it
// started, at a version no older than the last one committed then and no
// newer than the last one written, and every row a transaction read must
// still read the same when it commits. Under the race detector every
// recycled page buffer is poisoned first, so a row read out of a buffer
// after it went back fails here.
func TestConcurrentTxnsMatchModel(t *testing.T) {
	const keys, loaded, writers, rounds = 24000, 18000, 3, 60
	cfg := dbCfg()
	cfg.PoolPages = 16
	cfg.CheckpointInterval = 2 * sim.Millisecond
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		// Load, checkpoint, and reopen, so that the run starts from a cold
		// pool: the load's dirty pages overflow the pool, and it shrinks
		// back only as later faults evict.
		load := cfg
		load.CheckpointInterval = 3600 * sim.Second
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), load)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < loaded; k += 100 {
			tx := db.Begin()
			for j := k; j < k+100; j++ {
				tx.Write(uint64(j), versioned(uint64(j), 1))
			}
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if db, err = minidb.Open(p, r.env, r.drv.BlockDev(1), cfg); err != nil {
			t.Fatal(err)
		}
		// Version 0 is a key not inserted yet.
		committed := make([]int, keys) // last version whose Commit returned
		written := make([]int, keys)   // last version handed to Write
		for k := range loaded {
			committed[k], written[k] = 1, 1
		}
		// check holds what a transaction found for key against the model,
		// floor being what was committed when it looked.
		check := func(what string, key uint64, row []byte, ok bool, floor int) {
			t.Helper()
			if !ok {
				if floor > 0 {
					t.Fatalf("%s: key %d, committed at version %d, is missing", what, key, floor)
				}
				return
			}
			if ver := versionOf(t, key, row); ver < max(floor, 1) || ver > written[key] {
				t.Fatalf("%s: key %d at version %d outside [%d, %d]", what, key, ver, max(floor, 1), written[key])
			}
		}
		var done []*sim.Event
		for w := range writers {
			rng := rand.New(rand.NewSource(int64(w)))
			done = append(done, r.env.Go(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				var buf []byte
				for range rounds {
					tx := db.Begin()
					var mine [3]uint64
					for j := range mine {
						k := uint64(w + writers*rng.Intn(keys/writers))
						mine[j] = k
						row, ok, err := tx.Read(wp, k)
						if err != nil || ok != (written[k] > 0) || ok && versionOf(t, k, row) != written[k] {
							t.Fatalf("writer %d: own key %d reads %x ok=%v err=%v, want version %d", w, k, row, ok, err, written[k])
						}
						written[k]++
						buf = append(buf[:0], versioned(k, written[k])...)
						tx.Write(k, buf)
						clear(buf) // the transaction keeps its own copy
					}
					if err := tx.Commit(wp); err != nil {
						t.Error(err)
						return
					}
					for _, k := range mine {
						committed[k] = written[k]
					}
					wp.Sleep(300 * sim.Microsecond) // dirty few enough pages that most reads fault
				}
			}).Done())
		}
		for g := range 2 {
			rng := rand.New(rand.NewSource(int64(10 + g)))
			done = append(done, r.env.Go(fmt.Sprintf("reader%d", g), func(gp *sim.Proc) {
				type seen struct {
					key   uint64
					row   []byte
					floor int
				}
				var held []seen
				for range rounds {
					tx := db.Begin()
					held = held[:0]
					for range 4 {
						k := uint64(rng.Intn(keys))
						floor := committed[k]
						row, ok, err := tx.Read(gp, k)
						if err != nil {
							t.Fatal(err)
						}
						check("read", k, row, ok, floor)
						if ok {
							held = append(held, seen{k, row, floor})
						}
					}
					start, n := uint64(rng.Intn(keys)), 1+rng.Intn(30)
					floors := append([]int(nil), committed...)
					rows, err := tx.ReadRange(gp, start, n)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) > n {
						t.Fatalf("scan from %d: %d rows, asked for %d", start, len(rows), n)
					}
					// Every key from start to the last row is either a row
					// or was absent when the scan began. (A scan can come
					// up short: it stops at a leaf whose last key lies below
					// the next leaf's first by more than one.)
					k := start
					for _, rw := range rows {
						for ; k < rw.Key; k++ {
							check("scan", k, nil, false, floors[k])
						}
						if rw.Key != k {
							t.Fatalf("scan from %d: key %d out of order", start, rw.Key)
						}
						check("scan", k, rw.Data, true, floors[k])
						held = append(held, seen{k, rw.Data, floors[k]})
						k++
					}
					gp.Sleep(50 * sim.Microsecond)
					for _, h := range held { // valid until Commit, across parks
						check("held", h.key, h.row, true, h.floor)
					}
					if err := tx.Commit(gp); err != nil {
						t.Fatal(err)
					}
				}
			}).Done())
		}
		done = append(done, r.env.Go("checkpointer", func(cp *sim.Proc) {
			for range 5 {
				cp.Sleep(1500 * sim.Microsecond)
				if err := db.Checkpoint(cp); err != nil {
					t.Error(err)
				}
			}
		}).Done())
		for _, ev := range done {
			p.Wait(ev)
		}
		if misses := db.PoolMisses(); db.Stats.Checkpoints < 5 || misses < 500 {
			t.Fatalf("%d checkpoints and %d page faults: the run exercised too little", db.Stats.Checkpoints, misses)
		}
		for k := range uint64(keys) {
			row, ok, err := db.Begin().Read(p, k)
			if err != nil || ok != (committed[k] > 0) || ok && versionOf(t, k, row) != committed[k] {
				t.Fatalf("final read %d: %x ok=%v err=%v, want version %d", k, row, ok, err, committed[k])
			}
		}
	})
}

// TestTxnLifetimeIsChecked: under the race detector, a row a transaction
// read or wrote reads as poison once Commit hands the Txn back, and a second
// Commit of the same Txn panics instead of putting it on the free list
// twice, where two later Begins would share it.
func TestTxnLifetimeIsChecked(t *testing.T) {
	if !pagebuf.Poisoned {
		t.Skip("the checks run only in a race-detector build")
	}
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), dbCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(p, 1, row(1)); err != nil {
			t.Fatal(err)
		}
		// The second transaction reuses the first's Txn, whose storage has
		// grown to fit: its rows all lie in the storage Commit poisons, not
		// in one it outgrew and dropped.
		var tx *minidb.Txn
		var read, written []byte
		for range 2 {
			tx = db.Begin()
			var ok bool
			if read, ok, err = tx.Read(p, 1); err != nil || !ok || !bytes.Equal(read, row(1)) {
				t.Fatalf("read 1: %q ok=%v err=%v", read, ok, err)
			}
			tx.Write(2, row(2))
			if written, _, err = tx.Read(p, 2); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, held := range [][]byte{read, written} {
			if !bytes.Equal(held, bytes.Repeat([]byte{pagebuf.Poison}, len(held))) {
				t.Fatalf("a row held past Commit reads %x, not poison", held)
			}
		}
		defer func() {
			if recover() == nil {
				t.Error("a second Commit of one Txn did not panic")
			}
		}()
		tx.Commit(p)
	})
}

// TestResidentTxnDoesNotAllocate: once warm, a transaction whose reads and
// same-length writes touch only resident pages allocates nothing from Begin
// to Commit, the redo write it waits for included.
func TestResidentTxnDoesNotAllocate(t *testing.T) {
	if pagebuf.Poisoned {
		t.Skip("a race-detector build allocates on its own account")
	}
	cfg := dbCfg()
	cfg.CheckpointInterval = 3600 * sim.Second // no checkpoint in the timed region
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		db, err := minidb.Open(p, r.env, r.drv.BlockDev(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200 // two leaves' worth, resident in the 64-page pool
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = row(i)
			if err := db.Put(p, uint64(i), rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		txn := func(i int) error {
			tx := db.Begin()
			a, b := uint64(i%n), uint64((i*7+3)%n)
			if v, ok, err := tx.Read(p, a); err != nil || !ok || !bytes.Equal(v, rows[a]) {
				return fmt.Errorf("read %d: ok=%v err=%v", a, ok, err)
			}
			tx.Write(b, rows[b])
			return tx.Commit(p)
		}
		// 3000 warm transactions: each writes one block of the 2048-block
		// redo ring, and the SSD stores a block the first time it is
		// written; once the ring has come round, it keeps each in place.
		if allocs := allocsPerOp(t, 3000, 100, txn); allocs != 0 {
			t.Errorf("%d allocations in 100 resident transactions, want 0", allocs)
		}
		if db.Stats.Checkpoints != 0 {
			t.Fatalf("%d checkpoints ran", db.Stats.Checkpoints)
		}
	})
}

// allocsPerOp runs op runs times after warm calls and returns the heap
// allocations the timed calls made, the simulation they park on included.
// It must be called from a simulation process.
func allocsPerOp(t *testing.T, warm, runs int, op func(i int) error) uint64 {
	t.Helper()
	for i := range warm {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
