package minidb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// redoRecord is one record as the whole-ring decoder finds it.
type redoRecord struct {
	lsn uint64
	key uint64
	row []byte
}

// oracleDecodeRedo is the batch decoder recovery used while it read the whole
// ring into one buffer: records up to the first invalid one, each row copied.
func oracleDecodeRedo(b []byte) []redoRecord {
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
		row := append([]byte(nil), b[off+24:end]...)
		out = append(out, redoRecord{lsn: lsn, key: key, row: row})
		off = end
	}
	return out
}

// oracleScan is recovery's scan as it stood while it read the whole ring into
// one buffer: every chunk read first, then a batch parsed from each block
// boundary not already consumed, then every record sorted by LSN.
func oracleScan(p *sim.Proc, dev *ringDev, base, blocks uint64) ([]redoRecord, error) {
	const bs = 4096
	ring := make([]byte, blocks*bs)
	const chunk = 256
	for blk := uint64(0); blk < blocks; blk += chunk {
		n := min(chunk, blocks-blk)
		if err := dev.ReadAt(p, base+blk, uint32(n), ring[blk*bs:(blk+n)*bs]); err != nil {
			return nil, err
		}
	}
	var recs []redoRecord
	consumed := make([]bool, blocks)
	for blk := uint64(0); blk < blocks; blk++ {
		if consumed[blk] {
			continue
		}
		batch := oracleDecodeRedo(ring[blk*bs:])
		if len(batch) == 0 {
			continue
		}
		var n int
		for _, rec := range batch {
			n += 24 + len(rec.row)
		}
		for b := blk; b < blk+uint64((n+bs-1)/bs) && b < blocks; b++ {
			consumed[b] = true
		}
		recs = append(recs, batch...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })
	return recs, nil
}

// ringPlanter lays group-commit batches into a ring as the redo log writes
// them: records back to back from a block boundary, zero-padded to whole
// blocks.
type ringPlanter struct {
	ring []byte
	rng  *rand.Rand
	lsn  uint64
}

// batch writes n records with rows of rowBytes bytes from block blk and
// returns the block after the batch.
func (r *ringPlanter) batch(blk, n, rowBytes int) int {
	var b []byte
	for i := 0; i < n; i++ {
		r.lsn++
		row := make([]byte, rowBytes)
		r.rng.Read(row)
		b = appendRedo(b, r.lsn, uint64(r.rng.Intn(500)), row)
	}
	blocks := (len(b) + 4095) / 4096
	at := r.ring[blk*4096 : (blk+blocks)*4096]
	clear(at[copy(at, b):])
	return blk + blocks
}

// TestScanMatchesTheWholeRingDecoder holds redo recovery's chunked scan to the
// whole-ring decoder it replaced over planted rings — batches across chunk
// boundaries, a batch that fills its blocks to the last byte, torn batches
// (one torn in the chunk after it began), a ring rewritten over older batches with stale LSNs, a wrapped write position
// and a record cut by the ring's end — and over random rings of overlapping,
// damaged batches: the same read commands, the same records newer than the
// checkpoint replayed in the same order, each with its own copy of the row,
// and the next LSN past them.
func TestScanMatchesTheWholeRingDecoder(t *testing.T) {
	const base, blocks = 5, 600 // chunks of 256, 256 and 88 blocks
	planted := []struct {
		name  string
		plant func(r *ringPlanter) (checkpoint uint64)
	}{
		{"across chunk boundaries", func(r *ringPlanter) uint64 {
			r.batch(254, 40, 214) // 254..256
			r.batch(300, 2, 2024) // two 2048-byte records: no padding
			r.batch(301, 3, 214)  // so the batch at 300 runs on into this one
			r.batch(510, 3, 4000) // 510..512
			r.batch(513, 1, 0)
			return 0
		}},
		{"torn across a chunk boundary", func(r *ringPlanter) uint64 {
			// A batch whose second record runs from block 255 into the next
			// chunk and is damaged there; the next batch starts at 257.
			r.batch(255, 1, 214)
			r.lsn++
			copy(r.ring[255*4096+redoHeader+214:], appendRedo(nil, r.lsn, 9, make([]byte, 6000)))
			r.ring[256*4096+500] ^= 0xFF
			r.batch(257, 3, 214)
			return 0
		}},
		{"torn batch", func(r *ringPlanter) uint64 {
			end := r.batch(254, 40, 214)
			clear(r.ring[(254+end)*4096/2 : end*4096])
			r.batch(end, 2, 214)
			return 0
		}},
		{"stale LSNs", func(r *ringPlanter) uint64 {
			for blk := 0; blk < blocks-3; {
				blk = r.batch(blk, 1+r.rng.Intn(12), 214)
			}
			checkpoint := r.lsn / 2
			for blk := 0; blk < 300; {
				blk = r.batch(blk, 1+r.rng.Intn(20), 214)
			}
			return checkpoint
		}},
		{"wrapped writeBlock", func(r *ringPlanter) uint64 {
			blk := 0
			for blk < blocks-4 {
				blk = r.batch(blk, 1+r.rng.Intn(30), 214)
			}
			r.batch(0, 30, 214) // did not fit at the end: written from block 0
			// The last block starts a record that runs past the ring's end.
			last := r.ring[(blocks-1)*4096:]
			clear(last[copy(last, appendRedo(nil, r.lsn+1, 7, make([]byte, PageSize))):])
			return 0
		}},
	}
	rng := rand.New(rand.NewSource(26))
	check := func(name string, ring []byte, checkpoint uint64) {
		t.Helper()
		dev := newRingDev(nil, append(make([]byte, base*4096), ring...), 0, 0)
		var got, want []redoRecord
		var gotReads [][2]uint64
		var err1, err2 error
		env := sim.NewEnv(1)
		env.Go("scan", func(p *sim.Proc) {
			r := logring.New(env, dev, "minidb/redo", base, blocks)
			err1 = r.Recover(p, checkpoint, redoEnd, redoLSN, func(rec []byte) error {
				key, row := parseRedo(rec)
				got = append(got, redoRecord{lsn: redoLSN(rec), key: key, row: row})
				return nil
			})
			gotReads, dev.reads = dev.reads, nil
			var all []redoRecord
			all, err2 = oracleScan(p, dev, base, blocks)
			for _, rec := range all {
				if rec.lsn > checkpoint {
					want = append(want, rec)
				}
			}
			wantNext := checkpoint + 1
			if len(want) > 0 {
				wantNext = want[len(want)-1].lsn + 1
			}
			if next := r.NextLSN(); next != wantNext {
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
			if g.key != w.key || !bytes.Equal(g.row, w.row) || (g.row == nil) != (w.row == nil) {
				t.Fatalf("%s: record %d (LSN %d) differs from the whole-ring decoder's", name, i, g.lsn)
			}
		}
	}
	for _, c := range planted {
		r := &ringPlanter{ring: make([]byte, blocks*4096), rng: rng}
		checkpoint := c.plant(r)
		check(c.name, r.ring, checkpoint)
	}
	for i := 0; i < 60; i++ {
		r := &ringPlanter{ring: make([]byte, blocks*4096), rng: rng}
		for j := rng.Intn(40); j > 0; j-- {
			blk := rng.Intn(blocks - 20) // a batch here is at most 20 blocks
			end := r.batch(blk, 1+rng.Intn(20), []int{0, 214, 1000, 4000}[rng.Intn(4)])
			if rng.Intn(5) == 0 { // a torn or stale byte inside the batch
				r.ring[blk*4096+rng.Intn((end-blk)*4096)] ^= byte(1 + rng.Intn(255))
			}
		}
		check(fmt.Sprintf("random ring %d", i), r.ring, r.lsn*uint64(rng.Intn(3))/2)
	}
}
