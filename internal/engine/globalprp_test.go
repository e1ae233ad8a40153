package engine

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
)

func TestGlobalPRPLayout(t *testing.T) {
	// Fig. 4b: function ID in bits [54:48], list flag in bit 55.
	v := EncodeGlobalPRP(0x55, 0x1234000, true)
	if v&HostAddrMask != 0x1234000 {
		t.Fatalf("address bits %#x", v&HostAddrMask)
	}
	if (v>>48)&0x7F != 0x55 {
		t.Fatalf("function bits %#x", (v>>48)&0x7F)
	}
	if v&(1<<55) == 0 {
		t.Fatal("list flag not set")
	}
}

func TestGlobalPRPRoundTripProperty(t *testing.T) {
	f := func(fn uint8, addr uint64, list bool) bool {
		id := pcie.FuncID(fn % 128)
		a := addr & HostAddrMask
		g := EncodeGlobalPRP(id, a, list)
		fn2, a2, l2 := DecodeGlobalPRP(g)
		return fn2 == id && a2 == a && l2 == list && !IsChipMem(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalPRPRejectsWideAddress(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("49-bit address accepted")
		}
	}()
	EncodeGlobalPRP(0, 1<<48, false)
}

func TestChipMemFlag(t *testing.T) {
	a := uint64(0x8000) | ChipMemFlag
	if !IsChipMem(a) {
		t.Fatal("flag not detected")
	}
	if ChipAddr(a) != 0x8000 {
		t.Fatalf("chip addr %#x", ChipAddr(a))
	}
	if IsChipMem(0x8000) {
		t.Fatal("plain address detected as chip memory")
	}
}

// perEntryGlobalPRPs is buildGlobalPRPs as it was while it stored a list
// entry at a time through WriteU64: the reference the page-at-a-time writer
// must match byte for byte.
func (f *function) perEntryGlobalPRPs(segs []nvme.Segment, lists []uint64) (uint64, uint64, []uint64) {
	prp1 := EncodeGlobalPRP(f.id, segs[0].Addr, false)
	if len(segs) == 1 {
		return prp1, 0, lists
	}
	if len(segs) == 2 {
		return prp1, EncodeGlobalPRP(f.id, segs[1].Addr, false), lists
	}
	const perList = nvme.PageSize / 8
	listAddr := f.e.allocChipPage()
	lists = append(lists, listAddr)
	prp2 := listAddr | ChipMemFlag
	cur := listAddr
	slot := 0
	rest := segs[1:]
	for i, s := range rest {
		if slot == perList-1 && len(rest)-i > 1 {
			next := f.e.allocChipPage()
			lists = append(lists, next)
			f.e.chip.WriteU64(cur+uint64(slot)*8, next|ChipMemFlag)
			cur = next
			slot = 0
		}
		f.e.chip.WriteU64(cur+uint64(slot)*8, EncodeGlobalPRP(f.id, s.Addr, false))
		slot++
	}
	return prp1, prp2, lists
}

// TestGlobalPRPListBytesUnchanged: after rewriting transfers of 1 to 1 100
// segments — no list, one partly filled page, a page filled to its last slot
// with and without a chain pointer, a three-page chain — chip memory holds
// exactly the bytes the per-entry writer left there: same pages taken in the
// same order, same entries, chain pointers in the last slot, and beyond the
// entries whatever a recycled page held before.
func TestGlobalPRPListBytesUnchanged(t *testing.T) {
	const chipBytes = 1 << 20
	rig := func() *function {
		e := &Engine{chip: hostmem.New(chipBytes)}
		// Three pages of stale entries, freed: what a recycled list page
		// looks like.
		var stale []uint64
		for i := 0; i < 3; i++ {
			pg := e.allocChipPage()
			junk := make([]byte, hostmem.PageSize)
			for j := range junk {
				junk[j] = byte(0xC0 + i + j)
			}
			e.chip.Write(pg, junk)
			stale = append(stale, pg)
		}
		e.freeChipPages(stale)
		return &function{e: e, id: 0x2A}
	}
	ref, got := rig(), rig()
	for _, n := range []int{1, 2, 3, 32, 512, 513, 514, 1100} {
		segs := make([]nvme.Segment, n)
		for i := range segs {
			segs[i] = nvme.Segment{Addr: uint64(n)<<28 + uint64(i+1)*nvme.PageSize, Len: nvme.PageSize}
		}
		wp1, wp2, wl := ref.perEntryGlobalPRPs(segs, nil)
		gp1, gp2, gl := got.buildGlobalPRPs(segs, nil)
		if gp1 != wp1 || gp2 != wp2 || !slices.Equal(gl, wl) {
			t.Fatalf("%d segments: PRP1 %#x PRP2 %#x lists %#x, the per-entry writer's %#x %#x %#x", n, gp1, gp2, gl, wp1, wp2, wl)
		}
		want, have := make([]byte, chipBytes-hostmem.PageSize), make([]byte, chipBytes-hostmem.PageSize)
		ref.e.chip.Read(hostmem.PageSize, want)
		got.e.chip.Read(hostmem.PageSize, have)
		if !bytes.Equal(have, want) {
			i := 0
			for have[i] == want[i] {
				i++
			}
			t.Fatalf("%d segments: chip memory differs from the per-entry writer's at %#x (page offset %#x)",
				n, hostmem.PageSize+i, i%hostmem.PageSize)
		}
		if ref.e.chip.TouchedPages() != got.e.chip.TouchedPages() {
			t.Fatalf("%d segments: %d chip pages materialised, the per-entry writer %d", n, got.e.chip.TouchedPages(), ref.e.chip.TouchedPages())
		}
		// Recycle, so the next size starts on pages with this one's entries.
		ref.e.freeChipPages(wl)
		got.e.freeChipPages(gl)
	}
}
