package nvme

import (
	"errors"
	"fmt"
)

// PageSize is the memory page size assumed by the PRP mechanism (MPS=4K).
const PageSize = 4096

// PRPsPerList is the number of 8-byte entries in one PRP list page.
const PRPsPerList = PageSize / 8

// Segment is one physically contiguous piece of a data transfer.
type Segment struct {
	Addr uint64
	Len  int
}

// PageWriter abstracts where PRP list pages are written (host memory for
// the driver, chip memory for the BMS-Engine's rewritten lists).
type PageWriter interface {
	AllocPages(n int) uint64
	WriteU64(addr uint64, v uint64)
}

// PageReader abstracts where PRP list pages are read from.
type PageReader interface {
	ReadU64(addr uint64) uint64
}

// BuildPRPs constructs the PRP1/PRP2 pair describing a buffer of n bytes at
// physical address buf, writing PRP list pages through w when more than two
// pages are involved. It returns the two PRP fields plus the addresses of
// any list pages written (for accounting/tests).
//
// Layout rules (NVMe 1.4 §4.3): PRP1 may carry a page offset; every other
// entry must be page-aligned; when more than two pages are needed PRP2
// points at a PRP list, and if the list itself overflows one page its last
// entry chains to the next list page.
func BuildPRPs(w PageWriter, buf uint64, n int) (prp1, prp2 uint64, lists []uint64) {
	if n <= 0 {
		panic("nvme: BuildPRPs of empty buffer")
	}
	prp1 = buf
	first := int(PageSize - buf%PageSize)
	if first >= n {
		return prp1, 0, nil
	}
	// Remaining page-aligned pages after the first partial page.
	var pages []uint64
	for off := first; off < n; off += PageSize {
		pages = append(pages, buf+uint64(off))
	}
	if len(pages) == 1 {
		return prp1, pages[0], nil
	}
	// Build (possibly chained) PRP lists.
	listAddr := w.AllocPages(1)
	lists = append(lists, listAddr)
	prp2 = listAddr
	slot := 0
	cur := listAddr
	for i, pg := range pages {
		remaining := len(pages) - i
		if slot == PRPsPerList-1 && remaining > 1 {
			next := w.AllocPages(1)
			lists = append(lists, next)
			w.WriteU64(cur+uint64(slot)*8, next)
			cur = next
			slot = 0
		}
		w.WriteU64(cur+uint64(slot)*8, pg)
		slot++
	}
	return prp1, prp2, lists
}

// The constant-text errors of WalkPRPsInto are sentinels: the target
// controller's retry walk (internal/nvmet) reads a not-yet-fetched list page
// as zeroes, so its first attempt on every command with a PRP list ends in
// ErrNullPRP only to be discarded — building it must cost nothing.
var (
	ErrZeroLength  = errors.New("nvme: zero-length PRP walk")
	ErrMissingPRP2 = errors.New("nvme: transfer needs PRP2 but it is zero")
	ErrNullPRP     = errors.New("nvme: null PRP entry")
)

// WalkPRPsInto resolves a PRP1/PRP2 pair describing n bytes into the ordered
// physical segments of the transfer, reading list pages through r and
// appending into segs (pass segs[:0] to reuse its capacity across commands —
// the data path's per-command segment cache — or nil for a fresh slice). On
// error the returned slice is nil.
func WalkPRPsInto(segs []Segment, r PageReader, prp1, prp2 uint64, n int) ([]Segment, error) {
	if n <= 0 {
		return nil, ErrZeroLength
	}
	first := int(PageSize - prp1%PageSize)
	if first > n {
		first = n
	}
	segs = append(segs, Segment{Addr: prp1, Len: first})
	n -= first
	if n == 0 {
		return segs, nil
	}
	if prp2 == 0 {
		return nil, ErrMissingPRP2
	}
	if n <= PageSize {
		if prp2%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP2 %#x not page aligned", prp2)
		}
		segs = append(segs, Segment{Addr: prp2, Len: n})
		return segs, nil
	}
	// PRP2 is a list pointer.
	cur := prp2
	slot := 0
	for n > 0 {
		if cur%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP list page %#x not aligned", cur)
		}
		entry := r.ReadU64(cur + uint64(slot)*8)
		if entry == 0 {
			// Data entry or chain pointer alike: following a null chain
			// pointer would read a "list" at physical address 0.
			return nil, ErrNullPRP
		}
		pagesLeft := (n + PageSize - 1) / PageSize
		if slot == PRPsPerList-1 && pagesLeft > 1 {
			// Chain pointer to the next list page.
			cur = entry
			slot = 0
			continue
		}
		if entry%PageSize != 0 {
			return nil, fmt.Errorf("nvme: PRP entry %#x not page aligned", entry)
		}
		l := PageSize
		if n < l {
			l = n
		}
		segs = append(segs, Segment{Addr: entry, Len: l})
		n -= l
		slot++
	}
	return segs, nil
}

// PagesSpanned returns how many memory pages a buffer of n > 0 bytes at buf
// touches — the number of segments its PRP walk resolves.
func PagesSpanned(buf uint64, n int) int {
	return (int(buf%PageSize) + n + PageSize - 1) / PageSize
}

// ListEntries returns how many entries a transfer of n bytes at buf uses of
// the j-th page of its PRP list (j from 0, in chain order), chain pointer
// included. The list holds every page after the first; each list page
// carries PRPsPerList-1 of them and chains on, except the last, which holds
// what is left — so the count depends on the transfer's shape and the page's
// position alone, never on what the page contains.
func ListEntries(buf uint64, n, j int) int {
	return min(PagesSpanned(buf, n)-1-j*(PRPsPerList-1), PRPsPerList)
}
