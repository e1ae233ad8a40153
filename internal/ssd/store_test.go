package ssd

import (
	"bytes"
	"math/rand"
	"testing"

	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// TestBlockTableAgainstMap runs a random program of put, get and range-zero
// against the map the table replaced. LBAs cluster around leaf boundaries and
// hop between far-apart leaves, so the remembered leaf is both hit and
// invalidated; zeroBlocks ranges start and end inside, on and across leaves.
func TestBlockTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := &SSD{}
	ref := map[uint64][]byte{}
	bases := []uint64{0, 6 * leafBlocks, 1 << 28, 1<<40 - leafBlocks}
	for step := 0; step < 200000; step++ {
		lba := bases[rng.Intn(len(bases))] + uint64(rng.Intn(3*leafBlocks))
		switch op := rng.Intn(10); {
		case op < 4:
			b := make([]byte, BlockSize)
			b[0] = byte(step)
			old := d.store.put(lba, b)
			if !sameArray(old, ref[lba]) {
				t.Fatalf("step %d: put(%d) displaced %p, the map holds %p", step, lba, old, ref[lba])
			}
			ref[lba] = b
		case op < 8:
			if got := d.store.get(lba); !sameArray(got, ref[lba]) {
				t.Fatalf("step %d: get(%d) = %p, the map holds %p", step, lba, got, ref[lba])
			}
		case op < 9:
			if old := d.store.put(lba, nil); !sameArray(old, ref[lba]) {
				t.Fatalf("step %d: put(%d, nil) displaced %p, the map holds %p", step, lba, old, ref[lba])
			}
			delete(ref, lba)
		default:
			n := uint64(rng.Intn(3 * leafBlocks))
			d.zeroBlocks(lba, n)
			for i := uint64(0); i < n; i++ {
				delete(ref, lba+i)
			}
		}
	}
	for lba, b := range ref {
		if !sameArray(d.store.get(lba), b) {
			t.Fatalf("at the end: get(%d) differs from the map", lba)
		}
	}
	stored := 0
	for _, l := range d.store.leaves {
		for _, b := range l {
			if b != nil {
				stored++
			}
		}
	}
	if stored != len(ref) {
		t.Fatalf("the table holds %d blocks, the map %d", stored, len(ref))
	}
}

// TestZeroBlocksOfAWholeNamespaceSkipsAbsentLeaves: Format zeroes a 2 TB
// namespace's range; that must cost by the leaf, not by the block.
func TestZeroBlocksOfAWholeNamespaceSkipsAbsentLeaves(t *testing.T) {
	d := &SSD{}
	d.writeBytes(5*BlockSize, []byte{1})
	d.writeBytes((1<<28+3)*BlockSize, []byte{2})
	d.zeroBlocks(0, 2000<<30/BlockSize)
	if d.store.get(5) != nil || d.store.get(1<<28+3) != nil {
		t.Fatal("blocks survived a zero of the whole device")
	}
}

// TestAlignedWriteExchangesTheStagingBufferForTheBlock: after a whole-block
// write the stored block is the very array the payload was DMA'd into, and
// the block it displaced is what the command record stages into next — no
// copy into the store, and no array in two roles.
func TestAlignedWriteExchangesTheStagingBufferForTheBlock(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(2)
		write := func(seed byte) []byte {
			data := bytes.Repeat([]byte{seed}, 2*BlockSize)
			if cpl := h.rw(p, nvme.IOWrite, nsid, 40, data, buf); cpl.Status.IsError() {
				t.Fatalf("write: %#x", cpl.Status)
			}
			return data
		}
		base := h.dev.ns(nsid).startLBA + 40

		write(1)
		first := [2][]byte{h.dev.store.get(base), h.dev.store.get(base + 1)}
		// QD 1: the one pooled command record serves every write. Its staging
		// slots are empty, the buffers having gone into the store.
		io := h.dev.ioFree[len(h.dev.ioFree)-1]
		if io.bufs[0] != nil || io.bufs[1] != nil {
			t.Fatal("a first write kept its staging buffers although the store took them")
		}

		data := write(2)
		for i, old := range first {
			if !sameArray(io.bufs[i], old) {
				t.Fatalf("segment %d: the displaced block is not the record's next staging buffer", i)
			}
			if now := h.dev.store.get(base + uint64(i)); sameArray(now, old) || !bytes.Equal(now, data[:BlockSize]) {
				t.Fatalf("segment %d: the store does not hold the newly staged array", i)
			}
		}

		staged := [2]*byte{&io.bufs[0][0], &io.bufs[1][0]}
		write(3)
		for i := range staged {
			if got := h.dev.store.get(base + uint64(i)); &got[0] != staged[i] {
				t.Fatalf("segment %d: the stored block is not the array the payload was staged in", i)
			}
		}
		if got := h.dev.readBytes(base*BlockSize, 2*BlockSize); !bytes.Equal(got, bytes.Repeat([]byte{3}, 2*BlockSize)) {
			t.Fatal("the store does not read back the last write")
		}
	})
}

// TestUnalignedBufferTakesTheCopyPath: a host buffer that starts mid-page
// yields PRP segments that are shorter than a block or straddle two, which
// can be neither exchanged into the store nor DMA'd from one stored block.
// The bytes are the same as for an aligned buffer.
func TestUnalignedBufferTakesTheCopyPath(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		under := bytes.Repeat([]byte{9}, 3*BlockSize)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 90, under, h.mem.AllocPages(3)); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		data := make([]byte, 2*BlockSize)
		for i := range data {
			data[i] = byte(i * 5)
		}
		if cpl := h.rw(p, nvme.IOWrite, nsid, 90, data, h.mem.AllocPages(3)+512); cpl.Status.IsError() {
			t.Fatalf("unaligned write: %#x", cpl.Status)
		}
		want := append(append([]byte{}, data...), under[2*BlockSize:]...)
		if !bytes.Equal(h.stored(nsid, 90, len(want)), want) {
			t.Fatal("the store does not hold the unaligned write")
		}
		rbuf := h.mem.AllocPages(4) + 1000
		if cpl := h.rw(p, nvme.IORead, nsid, 90, make([]byte, len(want)), rbuf); cpl.Status.IsError() {
			t.Fatalf("unaligned read: %#x", cpl.Status)
		}
		got := make([]byte, len(want))
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got, want) {
			t.Fatal("unaligned read differs from the store")
		}
	})
}

// sameArray reports whether a and b are the same stored array: both absent,
// or views of one array from its first byte.
func sameArray(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return cap(a) == cap(b)
	}
	return &a[:1][0] == &b[:1][0]
}

// BenchmarkStoredLen prices the tail scan a whole aligned write pays: a block
// of data (one granule compared), a write-ahead log's block (a 436-byte
// record, then zeroes: eight) and an all-zero block (eight).
func BenchmarkStoredLen(b *testing.B) {
	data, wal := make([]byte, BlockSize), make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i | 1)
	}
	copy(wal, data[:436])
	for _, c := range []struct {
		name string
		blk  []byte
		want int
	}{{"whole", data, BlockSize}, {"wal", wal, granule}, {"zero", make([]byte, BlockSize), 0}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if storedLen(c.blk) != c.want {
					b.Fatal("wrong stored length")
				}
			}
		})
	}
}
