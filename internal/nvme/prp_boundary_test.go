package nvme

import (
	"errors"
	"slices"
	"testing"

	"bmstore/internal/hostmem"
)

// TestWalkPRPsIntoReuse: the data path walks every command into a pooled
// segment slice (segs[:0]). Reuse must neither leak stale segments nor
// reallocate once the capacity fits the largest command.
func TestWalkPRPsIntoReuse(t *testing.T) {
	mem := hostmem.New(16 << 20)
	big := mem.AllocPages(64)
	small := mem.AllocPages(2)

	var segs []Segment
	p1, p2, _ := BuildPRPs(mem, big, 64*4096)
	segs, err := WalkPRPsInto(segs[:0], mem, p1, p2, 64*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 64 {
		t.Fatalf("big walk: %d segments", len(segs))
	}
	grown := cap(segs)

	// A smaller command into the same buffer: the stale tail must be gone
	// and the capacity reused.
	p1, p2, _ = BuildPRPs(mem, small, 2*4096)
	segs, err = WalkPRPsInto(segs[:0], mem, p1, p2, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("small walk: %d segments: %v", len(segs), segs)
	}
	if cap(segs) != grown {
		t.Fatalf("capacity not reused: %d -> %d", grown, cap(segs))
	}
	for i, s := range segs {
		if s.Addr != small+uint64(i)*4096 || s.Len != 4096 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}

	// Append-style: walking into a non-empty prefix keeps it.
	prefix := []Segment{{Addr: 0xAAAA, Len: 1}}
	segs, err = WalkPRPsInto(prefix, mem, small, small+4096, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0] != (Segment{Addr: 0xAAAA, Len: 1}) {
		t.Fatalf("prefix lost: %v", segs)
	}
}

// TestPRPListChainBoundary pins the exact transfer sizes where the PRP list
// spills into a chained second page: with a page-aligned buffer of P pages,
// PRP1 covers the first, so a single 512-entry list page holds up to 512
// more (P = 513); P = 514 forces slot 511 to become a chain pointer.
func TestPRPListChainBoundary(t *testing.T) {
	for _, tc := range []struct {
		pages, lists int
	}{
		{513, 1}, // 512 list entries: exactly one full list page
		{514, 2}, // 513 entries: chain to a second page
	} {
		mem := hostmem.New(64 << 20)
		buf := mem.AllocPages(tc.pages)
		n := tc.pages * 4096
		p1, p2, lists := BuildPRPs(mem, buf, n)
		if len(lists) != tc.lists {
			t.Fatalf("%d pages: %d list pages, want %d", tc.pages, len(lists), tc.lists)
		}
		segs, err := WalkPRPsInto(nil, mem, p1, p2, n)
		if err != nil {
			t.Fatalf("%d pages: %v", tc.pages, err)
		}
		if len(segs) != tc.pages {
			t.Fatalf("%d pages: %d segments", tc.pages, len(segs))
		}
		for i, s := range segs {
			if s.Addr != buf+uint64(i)*4096 || s.Len != 4096 {
				t.Fatalf("%d pages: seg %d = %+v", tc.pages, i, s)
			}
		}
	}
}

// TestWalkPRPChainCorruption: a misaligned chain pointer or a null data
// entry inside a chained list must fail the walk, and the error path of
// WalkPRPsInto returns nil (not a half-filled reused slice).
func TestWalkPRPChainCorruption(t *testing.T) {
	mem := hostmem.New(64 << 20)
	buf := mem.AllocPages(514)
	n := 514 * 4096
	p1, p2, lists := BuildPRPs(mem, buf, n)
	if len(lists) != 2 {
		t.Fatalf("list pages %d, want 2", len(lists))
	}

	// Slot 511 of the first list page is the chain pointer; misalign it.
	chainSlot := lists[0] + 511*8
	good := mem.ReadU64(chainSlot)
	mem.WriteU64(chainSlot, good+1)
	if segs, err := WalkPRPsInto(make([]Segment, 0, 8), mem, p1, p2, n); err == nil {
		t.Fatal("misaligned chain pointer accepted")
	} else if segs != nil {
		t.Fatalf("error walk returned segments: %v", segs)
	}
	mem.WriteU64(chainSlot, good)

	// Null out a data entry on the second list page.
	mem.WriteU64(lists[1], 0)
	if _, err := WalkPRPsInto(nil, mem, p1, p2, n); err == nil {
		t.Fatal("null PRP entry accepted")
	}
}

// TestWalkPRPsRejectsNullChainPointer: the last slot of a list page that
// chains on is a pointer to the next list page, and a null one must end the
// walk like a null data entry — following it would read a list at physical
// address 0.
func TestWalkPRPsRejectsNullChainPointer(t *testing.T) {
	mem := hostmem.New(16 << 20)
	n := (PRPsPerList + 8) * PageSize // first page, then a list that chains on
	p1, p2, lists := BuildPRPs(mem, mem.AllocPages(PRPsPerList+8), n)
	if len(lists) != 2 {
		t.Fatalf("layout uses %d list pages, want 2", len(lists))
	}
	mem.WriteU64(lists[0]+(PRPsPerList-1)*8, 0)
	if _, err := WalkPRPsInto(nil, mem, p1, p2, n); !errors.Is(err, ErrNullPRP) {
		t.Fatalf("walk over a null chain pointer: %v, want ErrNullPRP", err)
	}
}

// readCounter counts the list entries a walk reads from each list page, in
// the order the walk reaches the pages.
type readCounter struct {
	mem   *hostmem.Memory
	pages []uint64
	reads []int
}

func (r *readCounter) ReadU64(addr uint64) uint64 {
	if pg := addr &^ (PageSize - 1); len(r.pages) == 0 || r.pages[len(r.pages)-1] != pg {
		r.pages = append(r.pages, pg)
		r.reads = append(r.reads, 0)
	}
	r.reads[len(r.reads)-1]++
	return r.mem.ReadU64(addr)
}

// TestListEntriesIsWhatTheWalkReads: PagesSpanned and ListEntries predict,
// from a transfer's address and length alone, how many segments its walk
// resolves and how many entries it reads from each list page — which is what
// lets the target controller keep only those entries of a fetched list page.
func TestListEntriesIsWhatTheWalkReads(t *testing.T) {
	for _, tc := range []struct {
		off   uint64 // of the buffer in its first page
		bytes int
	}{
		{0, 3 * PageSize}, {0, 128 << 10}, {512, 128 << 10}, {PageSize - 1, 2*PageSize + 2},
		{0, 512 * PageSize}, {0, 513 * PageSize}, {0, 514 * PageSize}, {8, 513*PageSize - 8}, {8, 513*PageSize - 7},
		{0, 1023 * PageSize}, {0, 1024 * PageSize}, {1, 1100*PageSize + 17},
	} {
		mem := hostmem.New(64 << 20)
		buf := mem.AllocPages(1200) + tc.off
		p1, p2, lists := BuildPRPs(mem, buf, tc.bytes)
		rc := &readCounter{mem: mem}
		segs, err := WalkPRPsInto(nil, rc, p1, p2, tc.bytes)
		if err != nil {
			t.Fatalf("offset %d, %d bytes: %v", tc.off, tc.bytes, err)
		}
		if got := PagesSpanned(buf, tc.bytes); got != len(segs) {
			t.Errorf("offset %d, %d bytes: PagesSpanned = %d, the walk resolves %d segments", tc.off, tc.bytes, got, len(segs))
		}
		if !slices.Equal(rc.pages, lists) {
			t.Fatalf("offset %d, %d bytes: walk read list pages %#x, built %#x", tc.off, tc.bytes, rc.pages, lists)
		}
		for j, want := range rc.reads {
			if got := ListEntries(buf, tc.bytes, j); got != want {
				t.Errorf("offset %d, %d bytes: ListEntries(page %d of %d) = %d, the walk reads %d", tc.off, tc.bytes, j, len(lists), got, want)
			}
		}
	}
}
