package engine

import (
	"testing"
	"testing/quick"
)

func TestEntryEncodingMatchesPaperLayout(t *testing.T) {
	// Fig. 4a: bits [7:2] chunk, bits [1:0] SSD ID.
	e := Entry{SSD: 2, Chunk: 0x15}
	b := encodeEntry(e)
	if b != 0x15<<2|2 {
		t.Fatalf("encoded %#x", b)
	}
	if got := decodeEntry(b); got != e {
		t.Fatalf("decode %+v", got)
	}
}

func TestEntryRoundTripProperty(t *testing.T) {
	f := func(ssd, chunk uint8) bool {
		e := Entry{SSD: int(ssd % 4), Chunk: int(chunk % 64)}
		return decodeEntry(encodeEntry(e)) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMappingTableFieldLimits(t *testing.T) {
	mt := NewMappingTable(8, 1<<20, 4096)
	if err := mt.Set(0, Entry{SSD: 4, Chunk: 0}); err == nil {
		t.Fatal("SSD 4 should not fit 2 bits")
	}
	if err := mt.Set(0, Entry{SSD: 0, Chunk: 64}); err == nil {
		t.Fatal("chunk 64 should not fit 6 bits")
	}
	if err := mt.Set(64, Entry{}); err == nil {
		t.Fatal("index beyond 8x8 table accepted")
	}
	if err := mt.Set(0, Entry{SSD: 3, Chunk: 63}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingValidationBits(t *testing.T) {
	mt := NewMappingTable(8, 1<<20, 4096)
	if mt.Valid(3) {
		t.Fatal("fresh entry valid")
	}
	mt.Set(3, Entry{SSD: 1, Chunk: 7})
	if !mt.Valid(3) {
		t.Fatal("set entry invalid")
	}
	if _, _, err := mt.Lookup(0); err == nil {
		t.Fatal("lookup through invalid entry succeeded")
	}
}

func TestLookupEquations(t *testing.T) {
	// 1 MB chunks of 4K blocks: CS = 256 LBAs.
	mt := NewMappingTable(8, 1<<20, 4096)
	mt.Set(0, Entry{SSD: 0, Chunk: 5})
	mt.Set(1, Entry{SSD: 3, Chunk: 9})
	// Host LBA 100 is inside logical chunk 0.
	ssdID, pl, err := mt.Lookup(100)
	if err != nil || ssdID != 0 || pl != 5*256+100 {
		t.Fatalf("got ssd=%d pl=%d err=%v", ssdID, pl, err)
	}
	// Host LBA 300 is inside logical chunk 1 at offset 44.
	ssdID, pl, err = mt.Lookup(300)
	if err != nil || ssdID != 3 || pl != 9*256+44 {
		t.Fatalf("got ssd=%d pl=%d err=%v", ssdID, pl, err)
	}
}

func TestLookupRangeSplitsAtChunkBoundary(t *testing.T) {
	mt := NewMappingTable(8, 1<<20, 4096) // 256 LBAs per chunk
	mt.Set(0, Entry{SSD: 0, Chunk: 0})
	mt.Set(1, Entry{SSD: 1, Chunk: 0})
	exts, err := mt.LookupRangeInto(nil, 250, 12) // crosses chunk 0 -> 1
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 2 {
		t.Fatalf("%d extents, want 2", len(exts))
	}
	if exts[0].SSD != 0 || exts[0].Blocks != 6 || exts[0].PhysLBA != 250 {
		t.Fatalf("ext0 %+v", exts[0])
	}
	if exts[1].SSD != 1 || exts[1].Blocks != 6 || exts[1].PhysLBA != 0 {
		t.Fatalf("ext1 %+v", exts[1])
	}
}

// Property: LookupRangeInto covers exactly the requested range in order, each
// extent stays within one chunk, and per-LBA results agree with Lookup.
func TestLookupRangeCoversProperty(t *testing.T) {
	mt := NewMappingTable(8, 1<<20, 4096)
	cs := mt.ChunkLBAs()
	for i := 0; i < mt.Slots(); i++ {
		mt.Set(i, Entry{SSD: i % 4, Chunk: (i * 7) % 64})
	}
	limit := uint64(mt.Slots()) * cs
	f := func(start uint32, blocks uint16) bool {
		s := uint64(start) % (limit - 600)
		n := uint32(blocks%600) + 1
		exts, err := mt.LookupRangeInto(nil, s, n)
		if err != nil {
			return false
		}
		cur := s
		var total uint32
		for _, e := range exts {
			if e.HostLBA != cur {
				return false
			}
			// stays inside one chunk
			if e.PhysLBA/cs != (e.PhysLBA+uint64(e.Blocks)-1)/cs {
				return false
			}
			// agrees with per-LBA lookup at both ends
			ssdID, pl, err := mt.Lookup(cur)
			if err != nil || ssdID != e.SSD || pl != e.PhysLBA {
				return false
			}
			cur += uint64(e.Blocks)
			total += e.Blocks
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
