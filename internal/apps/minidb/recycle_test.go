package minidb

import (
	"bytes"
	"slices"
	"testing"

	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/sim"
)

// TestHeldRowSeesItsLeafRecycled plants the violation the ownership rule in
// btree.go forbids: holding a row the tree handed out (get returns the
// tree's own bytes) across a park in which its leaf is evicted. The leaf's
// buffer goes back to the pager's free list, so under the race detector the
// held row reads as poison at once; in any build, the next fault reads
// another page over it.
func TestHeldRowSeesItsLeafRecycled(t *testing.T) {
	cfg := Config{PoolPages: 16, RedoBytes: 256 * 4096, CheckpointInterval: 3600 * sim.Second}
	journalBlks := uint64(2*cfg.PoolPages+1024) * blocksPerPage
	env := sim.NewEnv(1)
	dev := newRingDev(env, make([]byte, (superBlocks+journalBlks+256+128*blocksPerPage)*4096), 0, 0)
	main := env.Go("test", func(p *sim.Proc) {
		db, err := Open(p, env, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const key = 700
		for k := range uint64(2000) { // about a dozen leaves
			if err := db.Put(p, k, bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(p); err != nil { // every page clean, so evictable
			t.Fatal(err)
		}
		held, ok, err := db.tree.get(p, key)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", key, ok, err)
		}
		f, _, _, ok := db.tree.findResident(key)
		if !ok {
			t.Fatal("the leaf get just read is not resident")
		}
		want := bytes.Clone(held)
		// An empty free list, so that it keeps every buffer the evictions
		// give back (it drops those past pagebuf.Cap) and the leaf's, given
		// back last, is the one the next fault reads into.
		db.pool.bufs = pagebuf.New(PageSize)

		var evicted []pageID
		for range 100 {
			resident := make(map[pageID]bool, len(db.pool.frames))
			for id := range db.pool.frames {
				resident[id] = true
			}
			if !db.pool.evictClean() {
				t.Fatal("no clean page to evict")
			}
			for id := range resident {
				if _, still := db.pool.frames[id]; !still {
					evicted = append(evicted, id)
				}
			}
			if _, still := db.pool.frames[f.id]; !still {
				break
			}
		}
		if _, still := db.pool.frames[f.id]; still {
			t.Fatal("the held row's leaf was never evicted")
		}
		if pagebuf.Poisoned && !bytes.Equal(held, bytes.Repeat([]byte{pagebuf.Poison}, len(held))) {
			t.Fatalf("a row held across its leaf's eviction reads %x, not poison", held)
		}
		other := evicted[0]
		if other == f.id {
			if len(evicted) == 1 {
				t.Fatal("no other page was evicted to fault back")
			}
			other = evicted[1]
		}
		if _, err := db.pool.fault(p, other); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(held, want) {
			t.Fatal("a row held across its leaf's eviction survived the next fault: its buffer was not recycled")
		}
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

// TestSplitSurvivesItsLeafsEviction: a leaf that splits while its frame is
// clean can be evicted by the very alloc that makes room for its right
// half, and the re-fault of its page parks. The split holds the leaf across
// that park, so the eviction must give back neither the leaf nor its buffer.
// Before each insert into the leaf, the test checkpoints, so that the leaf
// is clean, and sets the clock so that the leaf is its next victim, until an
// insert splits it.
func TestSplitSurvivesItsLeafsEviction(t *testing.T) {
	cfg := Config{PoolPages: 16, RedoBytes: 256 * 4096, CheckpointInterval: 3600 * sim.Second}
	journalBlks := uint64(2*cfg.PoolPages+1024) * blocksPerPage
	env := sim.NewEnv(1)
	dev := newRingDev(env, make([]byte, (superBlocks+journalBlks+256+128*blocksPerPage)*4096), 0, 0)
	row := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k), byte(k >> 8)}, 50) }
	main := env.Go("test", func(p *sim.Proc) {
		db, err := Open(p, env, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 16000; k += 4 { // room between keys for inserts
			if err := db.Put(p, k, row(k)); err != nil {
				t.Fatal(err)
			}
		}
		const anchor = 1400
		for range 200 {
			if err := db.Checkpoint(p); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.tree.get(p, anchor); err != nil {
				t.Fatal(err)
			}
			f, leaf, _, _ := db.tree.findResident(anchor)
			var keys []uint64
			var next uint64
			for i, e := range leaf.entries {
				keys = append(keys, e.key)
				if next == 0 && i+1 < len(leaf.entries) && leaf.entries[i+1].key > e.key+1 {
					next = e.key + 1
				}
			}
			if next == 0 {
				t.Fatal("no room left in the leaf")
			}
			// Every clock bit set and the hand on the leaf: a sweep clears
			// them all and comes round to the leaf first.
			for _, g := range db.pool.frames {
				g.ref = true
			}
			db.pool.hand = slices.Index(db.pool.clock, f.id)
			pages, misses := db.pool.nextPage, db.pool.Misses
			if err := db.Put(p, next, row(next)); err != nil {
				t.Fatal(err)
			}
			if db.pool.nextPage == pages {
				continue // no split yet
			}
			if db.pool.Misses == misses {
				t.Fatal("the split did not evict and re-fault its leaf")
			}
			for _, k := range append(keys, next) {
				got, ok, err := db.tree.get(p, k)
				if err != nil || !ok || !bytes.Equal(got, row(k)) {
					t.Fatalf("after the split, key %d reads %x ok=%v err=%v", k, got, ok, err)
				}
			}
			return
		}
		t.Fatal("200 inserts never split the leaf")
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}
