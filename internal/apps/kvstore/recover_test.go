package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bmstore/internal/apps/logring"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// ringDev is a block device over a flat byte slice that logs the blocks of
// its reads and writes. Its I/O completes inside Submit, except that a write
// to any of the blocks [failFrom, failTo) fails with nvme.StatusInternal
// after 10 µs on env.
type ringDev struct {
	host.Parking
	env              *sim.Env
	data             []byte
	reads, writes    [][2]uint64 // lba, blocks
	failFrom, failTo uint64
}

func newRingDev(env *sim.Env, data []byte, failFrom, failTo uint64) *ringDev {
	m := &ringDev{env: env, data: data, failFrom: failFrom, failTo: failTo}
	m.Parking = host.NewParking(m)
	return m
}

func (m *ringDev) BlockSize() int         { return 4096 }
func (m *ringDev) CapacityBlocks() uint64 { return uint64(len(m.data) / 4096) }
func (m *ringDev) PerIOCPU() sim.Time     { return 0 }

func (m *ringDev) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	ext := [2]uint64{lba, uint64(blocks)}
	switch op {
	case nvme.IORead:
		m.reads = append(m.reads, ext)
		copy(buf, m.data[lba*4096:(lba+uint64(blocks))*4096])
	case nvme.IOWrite:
		m.writes = append(m.writes, ext)
		if lba < m.failTo && m.failFrom < lba+uint64(blocks) {
			m.env.Schedule(10*sim.Microsecond, func() { done(host.IOOutcome{Status: nvme.StatusInternal, Attempts: 1}) })
			return
		}
		copy(m.data[lba*4096:], buf)
	}
	done(host.IOOutcome{Attempts: 1})
}

// oracleScan is recovery's scan as it stood while it read the whole ring into
// one buffer: every chunk read first, then a batch parsed from each block
// boundary not already consumed, then every record sorted by LSN. The records
// alias the ring.
func oracleScan(p *sim.Proc, dev *ringDev, base, blocks uint64) ([]walRecord, error) {
	const bs = 4096
	ring := make([]byte, blocks*bs)
	const chunk = 256
	for blk := uint64(0); blk < blocks; blk += chunk {
		n := min(chunk, blocks-blk)
		if err := dev.ReadAt(p, base+blk, uint32(n), ring[blk*bs:(blk+n)*bs]); err != nil {
			return nil, err
		}
	}
	var recs []walRecord
	consumed := make([]bool, blocks)
	for blk := uint64(0); blk < blocks; blk++ {
		if consumed[blk] {
			continue
		}
		batch := decodeRecords(ring[blk*bs:])
		if len(batch) == 0 {
			continue
		}
		var batchBytes int
		for _, r := range batch {
			batchBytes += recordLen(r.key, r.value)
		}
		for b := blk; b < blk+uint64((batchBytes+bs-1)/bs) && b < blocks; b++ {
			consumed[b] = true
		}
		recs = append(recs, batch...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	return recs, nil
}

// ringPlanter lays group-commit batches into a ring as the WAL writes them:
// records back to back from a block boundary, zero-padded to whole blocks.
type ringPlanter struct {
	ring []byte
	rng  *rand.Rand
	lsn  uint64
}

// batch writes n records with values of valueBytes bytes (tombstones when 0)
// from block blk and returns the block after the batch.
func (r *ringPlanter) batch(blk, n, valueBytes int) int {
	var b []byte
	for i := 0; i < n; i++ {
		r.lsn++
		var value []byte
		if valueBytes > 0 {
			value = make([]byte, valueBytes)
			r.rng.Read(value)
		}
		b = appendRecord(b, r.lsn, []byte(fmt.Sprintf("key%06d", r.rng.Intn(500))), value)
	}
	blocks := (len(b) + 4095) / 4096
	at := r.ring[blk*4096 : (blk+blocks)*4096]
	clear(at[copy(at, b):])
	return blk + blocks
}

// TestScanMatchesTheWholeRingDecoder holds recovery's chunked scan to the
// whole-ring decoder it replaced over planted rings — batches and single
// records across chunk boundaries, a batch that fills its blocks to the last
// byte, torn batches (one torn in the chunk after it began), a ring rewritten over older batches with stale LSNs, a
// wrapped write position and a record cut by the ring's end — and over random
// rings of overlapping, damaged batches: the same read commands, the same
// records newer than the flushed LSN replayed in the same order, each with its
// own key and value, and the next LSN past them.
func TestScanMatchesTheWholeRingDecoder(t *testing.T) {
	const base, blocks = 3, 600 // chunks of 256, 256 and 88 blocks
	planted := []struct {
		name  string
		plant func(r *ringPlanter) (flushed uint64)
	}{
		{"across chunk boundaries", func(r *ringPlanter) uint64 {
			r.batch(240, 1, 20000) // one record over five blocks
			r.batch(254, 12, 1000) // 254..257
			r.batch(300, 2, 2019)  // two 2048-byte records: no padding
			r.batch(301, 3, 100)   // so the batch at 300 runs on into this one
			r.batch(509, 1, 20000) // one record over 509..513
			r.batch(514, 2, 0)
			return 0
		}},
		{"torn across a chunk boundary", func(r *ringPlanter) uint64 {
			// A batch whose second record runs from block 255 into the next
			// chunk and is damaged there; the next batch starts at 257.
			r.batch(255, 1, 100)
			r.lsn++
			at := 255*4096 + recordLen([]byte("key000000"), make([]byte, 100))
			copy(r.ring[at:], appendRecord(nil, r.lsn, []byte("torn"), make([]byte, 6000)))
			r.ring[256*4096+500] ^= 0xFF
			r.batch(257, 3, 100)
			return 0
		}},
		{"torn batch", func(r *ringPlanter) uint64 {
			end := r.batch(254, 20, 500) // 254..256
			clear(r.ring[(254+end)*4096/2 : end*4096])
			r.batch(end, 2, 100)
			return 0
		}},
		{"stale LSNs", func(r *ringPlanter) uint64 {
			for blk := 0; blk < blocks-3; {
				blk = r.batch(blk, 1+r.rng.Intn(4), 900)
			}
			flushed := r.lsn / 2
			for blk := 0; blk < 300; {
				blk = r.batch(blk, 1+r.rng.Intn(6), 900)
			}
			return flushed
		}},
		{"wrapped writeBlock", func(r *ringPlanter) uint64 {
			blk := 0
			for blk < blocks-4 {
				blk = r.batch(blk, 1+r.rng.Intn(6), 1500)
			}
			r.batch(0, 8, 1500) // did not fit at the end: written from block 0
			// The last block starts a record that runs past the ring's end.
			last := r.ring[(blocks-1)*4096:]
			clear(last[copy(last, appendRecord(nil, r.lsn+1, []byte("cut"), make([]byte, 5000))):])
			return 0
		}},
	}
	rng := rand.New(rand.NewSource(26))
	check := func(name string, ring []byte, flushed uint64) {
		t.Helper()
		dev := newRingDev(nil, append(make([]byte, base*4096), ring...), 0, 0)
		var got, want []walRecord
		var gotReads [][2]uint64
		var err1, err2 error
		env := sim.NewEnv(1)
		env.Go("scan", func(p *sim.Proc) {
			w := logring.New(env, dev, "kv/wal", base, blocks)
			err1 = w.Recover(p, flushed, recordEnd, recordLSN, func(rec []byte) error {
				got = append(got, parseRecord(rec))
				return nil
			})
			gotReads, dev.reads = dev.reads, nil
			var all []walRecord
			all, err2 = oracleScan(p, dev, base, blocks)
			for _, r := range all {
				if r.lsn > flushed {
					want = append(want, r)
				}
			}
			wantNext := flushed + 1
			if len(want) > 0 {
				wantNext = want[len(want)-1].lsn + 1
			}
			if next := w.NextLSN(); next != wantNext {
				t.Errorf("%s: next LSN %d after recovery, want %d", name, next, wantNext)
			}
		})
		env.Run()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", name, err1, err2)
		}
		if fmt.Sprint(gotReads) != fmt.Sprint(dev.reads) {
			t.Fatalf("%s: read commands %v, the whole-ring decoder's %v", name, gotReads, dev.reads)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, the whole-ring decoder found %d", name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.lsn != w.lsn {
				t.Fatalf("%s: record %d has LSN %d, want %d", name, i, g.lsn, w.lsn)
			}
			if !bytes.Equal(g.key, w.key) || !bytes.Equal(g.value, w.value) || (g.value == nil) != (w.value == nil) {
				t.Fatalf("%s: record %d (LSN %d) differs from the whole-ring decoder's", name, i, g.lsn)
			}
		}
	}
	for _, c := range planted {
		r := &ringPlanter{ring: make([]byte, blocks*4096), rng: rng}
		flushed := c.plant(r)
		check(c.name, r.ring, flushed)
	}
	for i := 0; i < 60; i++ {
		r := &ringPlanter{ring: make([]byte, blocks*4096), rng: rng}
		for j := rng.Intn(40); j > 0; j-- {
			blk := rng.Intn(blocks - 8) // a batch here is at most 6 blocks
			end := r.batch(blk, 1+rng.Intn(8), []int{0, 30, 500, 2500, 3000}[rng.Intn(5)])
			if rng.Intn(5) == 0 { // a torn or stale byte inside the batch
				r.ring[blk*4096+rng.Intn((end-blk)*4096)] ^= byte(1 + rng.Intn(255))
			}
		}
		check(fmt.Sprintf("random ring %d", i), r.ring, r.lsn*uint64(rng.Intn(3))/2)
	}
}
