package kvstore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/pagebuf"
	"bmstore/internal/sim"
)

// TestScanIsNotMovedByAPutWhileItParks: a Scan that parks on a table read
// while a Put of a new key lands in the memtable returns exactly the keys
// from its start on. Even keys lie in a table and odd keys in the memtable;
// the Put of "k000a" shifts every memtable entry one place. While Scan
// walked the memtable's own array, that shift made it return k009, below
// its start, and drop k029.
func TestScanIsNotMovedByAPutWhileItParks(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		k := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
		for i := 0; i < 40; i += 2 {
			if err := s.Put(p, k(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(p); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle(p)
		for i := 1; i < 40; i += 2 {
			if err := s.Put(p, k(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		var landed sim.Time
		put := r.env.Go("put", func(pp *sim.Proc) {
			if err := s.Put(pp, []byte("k000a"), []byte("new")); err != nil {
				t.Error(err)
			}
			landed = pp.Now()
		})
		start := p.Now()
		got, err := s.Scan(p, k(10), 20)
		end := p.Now()
		p.Wait(put.Done())
		if err != nil {
			t.Fatal(err)
		}
		if !(start < landed && landed < end) {
			t.Fatalf("the Put landed at %v, outside the Scan's park [%v, %v]: the test shows nothing", landed, start, end)
		}
		if len(got) != 20 {
			t.Fatalf("scan returned %d keys, want 20", len(got))
		}
		for j, kv := range got {
			if want := k(10 + j); string(kv.Key) != string(want) || string(kv.Value) != string(val(10+j)) {
				t.Fatalf("scan row %d = %q=%q, want %q=%q", j, kv.Key, kv.Value, want, val(10+j))
			}
		}
	})
}

// TestScanSeesADeleteDuringAFlush: a key deleted while the memtable that
// holds it is being flushed shadows only that key. The table holds a=v1 and
// b=v1, the memtable being flushed a=v2, b=v2 and c=v2, and the active
// memtable a tombstone for a. Scans from a must return b=v2 then c=v2. While
// the flushing memtable was cut off after limit live entries, as only the
// active one may be, the tombstone left the cut one short: a limit of 1
// returned the table's stale b=v1, and a limit of 2 dropped c.
func TestScanSeesADeleteDuringAFlush(t *testing.T) {
	for limit := 1; limit <= 2; limit++ {
		t.Run(fmt.Sprint("limit ", limit), func(t *testing.T) {
			cfg := smallCfg()
			// A memtable entry costs key + value + 16 bytes: the third v2
			// put fills the memtable and starts its flush, no earlier put does.
			cfg.MemtableBytes = 3 * (1 + 2 + 16)
			r := newRig(t)
			r.run(t, func(p *sim.Proc) {
				s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), cfg)
				if err != nil {
					t.Fatal(err)
				}
				put := func(k, v string) {
					var vb []byte
					if v != "" {
						vb = []byte(v)
					}
					if err := s.Put(p, []byte(k), vb); err != nil {
						t.Fatal(err)
					}
				}
				put("a", "v1")
				put("b", "v1")
				if err := s.Flush(p); err != nil {
					t.Fatal(err)
				}
				s.WaitIdle(p)
				flushes := s.Stats.Flushes
				put("a", "v2")
				put("b", "v2")
				put("c", "v2")
				put("a", "") // the delete
				if s.Stats.Flushes != flushes {
					t.Fatal("the flush of the v2 memtable ended before the scan: the test shows nothing")
				}
				got, err := s.Scan(p, []byte("a"), limit)
				if err != nil {
					t.Fatal(err)
				}
				want := []string{"b=v2", "c=v2"}[:limit]
				if len(got) != len(want) {
					t.Fatalf("scan returned %d rows %q, want %q", len(got), got, want)
				}
				for j, kv := range got {
					if row := string(kv.Key) + "=" + string(kv.Value); row != want[j] {
						t.Fatalf("scan row %d = %s, want %s", j, row, want[j])
					}
				}
				s.WaitIdle(p)
			})
		})
	}
}

// versioned is the value of key i at version ver: the two numbers, then a
// filler whose length and bytes both follow from them, so that a value
// holding another key's bytes, a torn copy or recycled-buffer poison does
// not verify. Versions come in pairs of one length: every other update
// rewrites a value in place, and the rest replace it.
func versioned(i, ver int) []byte {
	v := binary.BigEndian.AppendUint32(nil, uint32(i))
	v = binary.BigEndian.AppendUint32(v, uint32(ver))
	for j := 0; j < 24+ver/2%2*16; j++ {
		v = append(v, byte(i*31+ver*7+j))
	}
	return v
}

// versionOf checks that v is versioned(i, ver) for some ver, and returns it.
func versionOf(t *testing.T, i int, v []byte) int {
	t.Helper()
	if len(v) < 8 {
		t.Fatalf("key %d: value %x", i, v)
	}
	ver := int(binary.BigEndian.Uint32(v[4:]))
	if !bytes.Equal(v, versioned(i, ver)) {
		t.Fatalf("key %d: value %x is not a version of it", i, v)
	}
	return ver
}

// TestConcurrentOpsMatchModel drives concurrent puts, gets, range scans and
// flushes, with the compactions they set off, through a store whose
// memtable flushes every few dozen puts, and checks every result against a
// model: each writer owns a share of the keys, so its own reads are exact,
// and every other read must find a version no older than the last one
// acknowledged when it started and no newer than the last one put, and
// must still read the same after the reader parks. Under
// the race detector every recycled block buffer is poisoned first, so a
// value read out of a buffer after it went back fails here.
func TestConcurrentOpsMatchModel(t *testing.T) {
	const keys, writers, rounds = 240, 3, 150
	cfg := smallCfg()
	cfg.MemtableBytes = 4 << 10
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
		acked := make([]int, keys) // last version whose Put returned
		put := make([]int, keys)   // last version handed to Put
		for i := range keys {
			if err := s.Put(p, k(i), versioned(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		var done []*sim.Event
		for w := range writers {
			rng := rand.New(rand.NewSource(int64(w)))
			done = append(done, r.env.Go(fmt.Sprintf("writer%d", w), func(wp *sim.Proc) {
				var kb, vb, got []byte
				for range rounds {
					i := w + writers*rng.Intn(keys/writers)
					kb = append(kb[:0], k(i)...)
					var ok bool
					var err error
					if got, ok, err = s.Get(wp, kb, got[:0]); err != nil || !ok || versionOf(t, i, got) != acked[i] {
						t.Fatalf("writer %d: own key %d reads %x ok=%v err=%v, want version %d", w, i, got, ok, err, acked[i])
					}
					put[i]++
					vb = append(vb[:0], versioned(i, put[i])...)
					if err := s.Put(wp, kb, vb); err != nil {
						t.Error(err)
						return
					}
					clear(vb) // the store keeps its own copy
					acked[i] = put[i]
				}
			}).Done())
		}
		for g := range 2 {
			rng := rand.New(rand.NewSource(int64(10 + g)))
			done = append(done, r.env.Go(fmt.Sprintf("reader%d", g), func(gp *sim.Proc) {
				var got []byte
				for range rounds {
					i := rng.Intn(keys)
					floor := acked[i]
					var ok bool
					var err error
					got, ok, err = s.Get(gp, k(i), got[:0])
					if err != nil || !ok {
						t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
					}
					ver := versionOf(t, i, got)
					if ver < floor || ver > put[i] {
						t.Fatalf("get %d: version %d outside [%d, %d]", i, ver, floor, put[i])
					}
					start, n := rng.Intn(keys), 1+rng.Intn(12)
					floors := append([]int(nil), acked...)
					kvs, err := s.Scan(gp, k(start), n)
					if err != nil {
						t.Fatal(err)
					}
					if want := min(n, keys-start); len(kvs) != want {
						t.Fatalf("scan from %d: %d rows, want %d", start, len(kvs), want)
					}
					vers := make([]int, len(kvs))
					for j, kv := range kvs {
						i := start + j
						if !bytes.Equal(kv.Key, k(i)) {
							t.Fatalf("scan from %d: row %d is %q, want %q", start, j, kv.Key, k(i))
						}
						if vers[j] = versionOf(t, i, kv.Value); vers[j] < floors[i] || vers[j] > put[i] {
							t.Fatalf("scan from %d: key %d at version %d outside [%d, %d]", start, i, vers[j], floors[i], put[i])
						}
					}
					gp.Sleep(20 * sim.Microsecond)
					// What Get and Scan returned is the caller's, across parks.
					if again := versionOf(t, i, got); again != ver {
						t.Fatalf("get %d: the value read at version %d changed to %d", i, ver, again)
					}
					for j, kv := range kvs {
						if !bytes.Equal(kv.Key, k(start+j)) || versionOf(t, start+j, kv.Value) != vers[j] {
							t.Fatalf("scan from %d: row %d, read at version %d, changed to %q=%x", start, j, vers[j], kv.Key, kv.Value)
						}
					}
				}
			}).Done())
		}
		done = append(done, r.env.Go("flusher", func(fp *sim.Proc) {
			for range 10 {
				fp.Sleep(500 * sim.Microsecond)
				if err := s.Flush(fp); err != nil {
					t.Error(err)
				}
			}
		}).Done())
		for _, ev := range done {
			p.Wait(ev)
		}
		s.WaitIdle(p)
		if s.Stats.Flushes < 10 || s.Stats.Compactions == 0 {
			t.Fatalf("%d flushes and %d compactions: the run exercised too little", s.Stats.Flushes, s.Stats.Compactions)
		}
		for i := range keys {
			got, ok, err := s.Get(p, k(i), nil)
			if err != nil || !ok || versionOf(t, i, got) != acked[i] {
				t.Fatalf("final get %d: %x ok=%v err=%v, want version %d", i, got, ok, err, acked[i])
			}
		}
	})
}

// TestPointOpsDoNotAllocate: once warm, a Get into the caller's buffer —
// served by the memtable or by a table block read — and a Put that
// overwrites a value of the same length allocate nothing, device I/O
// included.
func TestPointOpsDoNotAllocate(t *testing.T) {
	if pagebuf.Poisoned {
		t.Skip("a race-detector build allocates on its own account")
	}
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		s, err := kvstore.Open(p, r.env, r.drv.BlockDev(0), smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		// Keys and values made up front: key and val allocate.
		const n = 200
		keys, vals := make([][]byte, n+1), make([][]byte, n+1)
		for i := range keys {
			keys[i], vals[i] = key(i), val(i)
		}
		for i := range n {
			if err := s.Put(p, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(p); err != nil {
			t.Fatal(err)
		}
		s.WaitIdle(p)
		if err := s.Put(p, keys[n], vals[n]); err != nil { // a key only the memtable holds
			t.Fatal(err)
		}
		dst := make([]byte, 0, 64)
		ops := []struct {
			name string
			op   func(i int) error
		}{
			{"Get from a table", func(i int) error {
				v, ok, err := s.Get(p, keys[i%n], dst[:0])
				if err == nil && (!ok || !bytes.Equal(v, vals[i%n])) {
					err = fmt.Errorf("get %d: %q ok=%v", i%n, v, ok)
				}
				return err
			}},
			{"Get from the memtable", func(int) error {
				v, ok, err := s.Get(p, keys[n], dst[:0])
				if err == nil && (!ok || !bytes.Equal(v, vals[n])) {
					err = fmt.Errorf("get %d: %q ok=%v", n, v, ok)
				}
				return err
			}},
			{"same-length Put", func(int) error { return s.Put(p, keys[n], vals[n]) }},
		}
		// 2000 warm calls: a Put writes one block of the 1024-block log, and
		// the SSD stores a block the first time it is written; once the
		// ring has come round, it keeps each in place.
		for _, o := range ops {
			if allocs := allocsPerOp(t, 2000, 100, o.op); allocs != 0 {
				t.Errorf("%s: %d allocations in 100 calls, want 0", o.name, allocs)
			}
		}
		if s.Stats.GetHitsMem == 0 || s.Stats.GetHitsMem == s.Stats.Gets {
			t.Fatalf("%d of %d gets hit the memtable: both paths must run", s.Stats.GetHitsMem, s.Stats.Gets)
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
