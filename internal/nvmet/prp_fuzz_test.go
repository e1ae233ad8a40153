package nvmet

import (
	"bytes"
	"slices"
	"testing"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
)

// Address map of a fuzzed PRP layout. Everything the walk can dereference
// stays inside the rig's bounded memory: the data buffer (never read, only
// pointed at), and the list pages, which the input places on any of 64 page
// slots — two list pages of one chain may land on the same slot.
const (
	fuzzDataBase  = 1 << 20
	fuzzListBase  = 4 << 20
	fuzzListSlots = 64
	fuzzMaxBytes  = 2<<20 + nvme.PageSize
)

// fuzzInput reads a fuzz input byte by byte; an exhausted input reads as
// zeros, so every prefix of an input is an input.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return v
}

func (in *fuzzInput) uint(nbytes int) (v uint64) {
	for i := 0; i < nbytes; i++ {
		v |= uint64(in.byte()) << (8 * i)
	}
	return v
}

// fuzzPlacer is the nvme.PageWriter that puts each list page where the
// input says.
type fuzzPlacer struct {
	mem *hostmem.Memory
	in  *fuzzInput
}

func (p fuzzPlacer) AllocPages(int) uint64 {
	return fuzzListBase + uint64(p.in.byte()%fuzzListSlots)*nvme.PageSize
}
func (p fuzzPlacer) WriteU64(addr, v uint64) { p.mem.WriteU64(addr, v) }

// fuzzLayout decodes an input into a PRP pair over mem: PRP1 offset (2
// bytes), length (3 bytes, 1 B … 2 MiB + 1 page), one placement byte per list
// page, then 5-byte corruption records until the input ends.
func fuzzLayout(mem *hostmem.Memory, data []byte) (prp1, prp2 uint64, n int) {
	in := &fuzzInput{data}
	off := in.uint(2) % nvme.PageSize
	n = 1 + int(in.uint(3)%fuzzMaxBytes)
	prp1, prp2, lists := nvme.BuildPRPs(fuzzPlacer{mem, in}, fuzzDataBase+off, n)
	for len(in.b) > 0 {
		op, which, slot, arg := in.byte()%8, in.byte(), in.uint(2)%(nvme.PageSize/8), uint64(in.byte())
		listSlot := fuzzListBase + arg%fuzzListSlots*nvme.PageSize
		var entry uint64 // ops 0-4 rewrite one entry of one of the layout's list pages
		if op < 5 {
			if len(lists) == 0 {
				continue
			}
			entry = lists[int(which)%len(lists)] + slot*8
		}
		switch op {
		case 0: // null entry (a null chain pointer when slot is the last)
			mem.WriteU64(entry, 0)
		case 1: // unaligned entry
			mem.WriteU64(entry, mem.ReadU64(entry)|(1+arg))
		case 2: // pointer to a list page: a chain pointer mid-list, or a re-aimed chain at the last slot
			mem.WriteU64(entry, listSlot)
		case 3: // pointer into the middle of a list page
			mem.WriteU64(entry, listSlot+8*(1+arg))
		case 4: // chain into the data buffer, which reads as zeros
			mem.WriteU64(entry, fuzzDataBase+arg*nvme.PageSize)
		case 5:
			prp2 = 0
		case 6:
			prp2 |= 8 * (1 + arg)
		case 7:
			prp2 = listSlot
		}
	}
	return prp1, prp2, n
}

// touchRecorder reads list entries straight from memory and notes, for each
// page in the order the walk first touches them, where in the chain that
// was (its own read count over nvme.PRPsPerList — a walk reads that many
// entries from every list page but the last) and how many entries of the
// page the walk reads in all.
type touchRecorder struct {
	mem   *hostmem.Memory
	reads int
	pages []touched
}

type touched struct {
	addr     uint64
	position int // in the chain, at first touch
	entries  int // highest slot read, plus one
}

func (r *touchRecorder) ReadU64(addr uint64) uint64 {
	pg := addr &^ (nvme.PageSize - 1)
	i := slices.IndexFunc(r.pages, func(t touched) bool { return t.addr == pg })
	if i < 0 {
		i = len(r.pages)
		r.pages = append(r.pages, touched{addr: pg, position: r.reads / nvme.PRPsPerList})
	}
	r.pages[i].entries = max(r.pages[i].entries, int(addr-pg)/8+1)
	r.reads++
	return r.mem.ReadU64(addr)
}

// FuzzPRPFetch: over any PRP layout — valid or corrupted with null,
// unaligned and misplaced chain pointers — the controller's retry walk must
// agree with the trivially correct reference, one nvme.WalkPRPsInto over the
// fully resident memory: same segments or same error, having fetched exactly
// the list pages the reference reads, each once, in the order it reads them —
// and having kept of each page exactly the entries the reference reads from
// it: none missing, and on a walk that completes not a byte more (a walk that
// ends in an error stops short of what its page was fetched for, which is
// what a transfer of that shape uses of a page at that position). An owner's
// second walk of a command that walked cleanly, Rewalk, must resolve the same
// segments from the kept pages alone — with the list scribbled over in
// memory, no event scheduled and the pool untouched — and one that expects
// another count, or re-walks a failed walk, must panic. Once the last reader
// releases, every buffer is back in the pool.
func FuzzPRPFetch(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("more corruption records only repeat fewer")
		}
		r := newRig(t)
		prp1, prp2, n := fuzzLayout(r.mem, data)

		ref := &touchRecorder{mem: r.mem}
		want, wantErr := nvme.WalkPRPsInto(nil, ref, prp1, prp2, n)

		var w PRPWalk
		got, err, attempts, _ := r.walkToEnd(&w, prp1, prp2, n)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("prp1 %#x prp2 %#x n %d: retry walk says %v, one-shot walk %v", prp1, prp2, n, err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("prp1 %#x prp2 %#x n %d: retry walk resolved %d segments, one-shot walk %d, or different ones",
				prp1, prp2, n, len(got), len(want))
		}
		if len(w.fetched) != len(ref.pages) {
			t.Fatalf("prp1 %#x prp2 %#x n %d: fetched list pages %#x, the one-shot walk reads %d", prp1, prp2, n, w.fetchedPages(), len(ref.pages))
		}
		for i, f := range w.fetched {
			tp := ref.pages[i]
			if f.addr != tp.addr {
				t.Fatalf("prp1 %#x prp2 %#x n %d: fetch %d is page %#x, the one-shot walk's page %d is %#x", prp1, prp2, n, i, f.addr, i, tp.addr)
			}
			kept := len(f.entries) / 8
			if kept < tp.entries || wantErr == nil && kept != tp.entries || kept != nvme.ListEntries(prp1, n, tp.position) {
				t.Fatalf("prp1 %#x prp2 %#x n %d: kept %d entries of list page %#x (position %d), the one-shot walk reads %d (err %v)",
					prp1, prp2, n, kept, f.addr, tp.position, tp.entries, wantErr)
			}
			inMem := make([]byte, len(f.entries))
			r.mem.Read(f.addr, inMem)
			if !bytes.Equal(f.entries, inMem) {
				t.Fatalf("prp1 %#x prp2 %#x n %d: the entries kept of list page %#x are not the page's first %d", prp1, prp2, n, f.addr, kept)
			}
		}
		if attempts != len(w.fetched)+1 {
			t.Fatalf("%d attempts for %d list pages, want one fetch per failed attempt", attempts, len(w.fetched))
		}
		if wantErr == nil {
			for _, tp := range ref.pages {
				r.mem.Write(tp.addr, make([]byte, nvme.PageSize))
			}
			events, now, pooled := r.env.Events(), r.env.Now(), len(r.c.listFree)
			again := r.c.Rewalk(&w, nil, prp1, prp2, n, len(want))
			r.env.Run()
			if !slices.Equal(again, want) {
				t.Fatalf("prp1 %#x prp2 %#x n %d: re-walk resolved %d segments, the walk %d, or different ones", prp1, prp2, n, len(again), len(want))
			}
			if len(w.fetched) != len(ref.pages) || len(r.c.listFree) != pooled || r.env.Events() != events || r.env.Now() != now {
				t.Fatalf("prp1 %#x prp2 %#x n %d: re-walk holds %d pages (want %d), pool %d (want %d), %d events, %d ns: it must fetch nothing",
					prp1, prp2, n, len(w.fetched), len(ref.pages), len(r.c.listFree), pooled, r.env.Events()-events, r.env.Now()-now)
			}
			if !rewalkPanics(r.c, &w, prp1, prp2, n, len(want)+1) {
				t.Fatalf("prp1 %#x prp2 %#x n %d: a re-walk expecting %d segments of %d did not panic", prp1, prp2, n, len(want)+1, len(want))
			}
		} else if !rewalkPanics(r.c, &w, prp1, prp2, n, 0) {
			t.Fatalf("prp1 %#x prp2 %#x n %d: a re-walk of a walk that failed (%v) did not panic", prp1, prp2, n, wantErr)
		}
		r.c.ReleasePRPs(&w)
		if len(r.c.listFree) != len(ref.pages) || len(w.fetched) != 0 {
			t.Fatalf("released %d buffers to the pool with %d still held, want all %d back", len(r.c.listFree), len(w.fetched), len(ref.pages))
		}
	})
}

// rewalkPanics reports whether Rewalk panics for want segments.
func rewalkPanics(c *Controller, w *PRPWalk, prp1, prp2 uint64, n, want int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	c.Rewalk(w, nil, prp1, prp2, n, want)
	return false
}
