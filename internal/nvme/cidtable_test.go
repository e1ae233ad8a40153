package nvme

import (
	"math/rand"
	"slices"
	"testing"
)

// cidRef is the table CIDTable replaced, kept as the reference: a Go map,
// with the keys sorted wherever order matters.
type cidRef map[uint16]*int

func (m cidRef) sorted() []uint16 {
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// cidWindow is how many CIDs the slide op keeps outstanding: more than one
// leaf's worth, so the window always straddles a leaf boundary.
const cidWindow = cidLeafSize + 44

// driveCIDTable runs a byte program against a CIDTable and the map reference
// side by side. Each op is four bytes — opcode, key high, key low, argument:
//
//	0 put    1 get    2 delete    3 iterate and compare
//	4 slide: arg×257 sequential puts from key (wrapping past 0xFFFF), each
//	  deleting the key cidWindow behind it — the host adaptor's CID window
//	5 iterate, deleting every visited key divisible by arg+2 inside the loop
//
// A program slides through three laps of the space at most; further slide ops
// are skipped, which keeps one fuzz input cheap. It then empties the table and
// checks that nothing is left behind.
func driveCIDTable(t *testing.T, prog []byte) {
	slideBudget := 3 << 16
	var tab CIDTable[int]
	ref := cidRef{}
	vals := 0
	put := func(k uint16) {
		v := new(int)
		*v = vals
		vals++
		tab.Put(k, v)
		ref[k] = v
	}
	del := func(k uint16) {
		if got, want := tab.Delete(k), ref[k]; got != want {
			t.Fatalf("Delete(%#x) returned %p, want %p", k, got, want)
		}
		delete(ref, k)
	}
	check := func(k uint16) {
		if got, want := tab.Get(k), ref[k]; got != want {
			t.Fatalf("Get(%#x) = %p, want %p", k, got, want)
		}
	}
	compare := func() {
		keys := ref.sorted()
		i := 0
		for k, v := range tab.All() {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				t.Fatalf("All yields #%d = (%#x, %p); reference has %d keys, next %v", i, k, v, len(keys), keys[min(i, len(keys)):min(i+1, len(keys))])
			}
			i++
		}
		if i != len(keys) {
			t.Fatalf("All stopped after %d of %d entries", i, len(keys))
		}
		checkCIDLeaves(t, &tab, ref)
	}
	for ; len(prog) >= 4; prog = prog[4:] {
		k, arg := uint16(prog[1])<<8|uint16(prog[2]), int(prog[3])
		switch prog[0] % 6 {
		case 0:
			put(k)
		case 1:
			check(k)
		case 2:
			del(k)
		case 3:
			compare()
		case 4:
			slideBudget -= arg * 257
			for i := 0; i < arg*257 && slideBudget >= 0; i++ {
				put(k + uint16(i))
				del(k + uint16(i) - cidWindow)
				check(k + uint16(i))
				check(k + uint16(i) - cidWindow)
			}
		case 5:
			var visited []uint16
			want := ref.sorted()
			for k := range tab.All() {
				visited = append(visited, k)
				if int(k)%(arg+2) == 0 {
					del(k)
				}
			}
			if !slices.Equal(visited, want) {
				t.Fatalf("a deleting walk visited %d keys, want the %d present at its start", len(visited), len(want))
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("Len %d, reference holds %d", tab.Len(), len(ref))
		}
	}
	compare()
	for _, k := range ref.sorted() {
		del(k)
	}
	checkCIDLeaves(t, &tab, ref)
	if tab.Len() != 0 {
		t.Fatalf("Len %d after deleting every key", tab.Len())
	}
}

// checkCIDLeaves checks the table's structure against the reference: a live
// leaf for exactly the ranges that hold a key, each counting what it holds,
// and free leaves that are empty and hold on to nothing.
func checkCIDLeaves(t *testing.T, tab *CIDTable[int], ref cidRef) {
	t.Helper()
	perLeaf := map[int]int{}
	for k := range ref {
		perLeaf[int(k>>cidLeafBits)]++
	}
	if len(tab.dir) > cidDirSize {
		t.Fatalf("directory grew to %d entries", len(tab.dir))
	}
	live := 0
	for i, l := range tab.dir {
		if l == nil {
			if perLeaf[i] != 0 {
				t.Fatalf("no leaf %d for its %d keys", i, perLeaf[i])
			}
			continue
		}
		live++
		if l.n != perLeaf[i] || l.n == 0 {
			t.Fatalf("leaf %d counts %d entries, reference has %d (an empty leaf must be freed)", i, l.n, perLeaf[i])
		}
	}
	if live != len(perLeaf) {
		t.Fatalf("%d live leaves for %d occupied ranges", live, len(perLeaf))
	}
	for _, l := range tab.free {
		if l.n != 0 || l.slot != [cidLeafSize]*int{} {
			t.Fatalf("a leaf on the free list still counts %d entries or holds a pointer", l.n)
		}
		if slices.Contains(tab.dir, l) {
			t.Fatal("a leaf is on the free list and in the directory at once")
		}
	}
}

// FuzzCIDTable's seed corpus (testdata/fuzz/FuzzCIDTable) holds the shapes
// worth starting from: both ends of the space, the wrap 0xFFFF -> 0 under a
// sliding window, a full lap of all 65 536 CIDs, a walk that deletes as it
// goes, and one key in every leaf followed by none.
func FuzzCIDTable(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(driveCIDTable)
}

// TestCIDTableAgainstMap is the fuzz target's seeded twin: random programs
// through the same driver on every `go test`.
func TestCIDTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		prog := make([]byte, 4*(1+rng.Intn(200)))
		rng.Read(prog)
		for j := 0; j < len(prog); j += 4 {
			if prog[j]%6 == 4 {
				prog[j+3] %= 3 // keep random slides short
			}
			if rng.Intn(2) == 0 {
				prog[j+1] %= 3 // and half the keys close together
			}
		}
		driveCIDTable(t, prog)
	}
}

// TestCIDTableRecyclesLeaves: a window sliding through the whole space — the
// host adaptor's allocation pattern — allocates leaves only until the window
// is full, and the directory no further than the highest CID stored.
func TestCIDTableRecyclesLeaves(t *testing.T) {
	var tab CIDTable[int]
	v := new(int)
	tab.Put(0x0300, v)
	if len(tab.dir) != 4 {
		t.Fatalf("directory has %d entries after a put into leaf 3, want 4", len(tab.dir))
	}
	tab.Delete(0x0300)
	slide := func(from, n int) {
		for i := from; i < from+n; i++ {
			tab.Put(uint16(i), v)
			tab.Delete(uint16(i - cidWindow))
		}
	}
	// AllocsPerRun's warm-up lap grows the directory to its full size; the
	// measured lap finds every leaf it needs on the free list.
	if got := testing.AllocsPerRun(1, func() { slide(0, 1<<16) }); got != 0 {
		t.Fatalf("a lap of the CID space allocated %v times, want 0: leaves are recycled", got)
	}
	if len(tab.dir) != cidDirSize {
		t.Fatalf("directory has %d entries after a full lap, want %d", len(tab.dir), cidDirSize)
	}
	live := 0
	for _, l := range tab.dir {
		if l != nil {
			live++
		}
	}
	if live+len(tab.free) > 3 {
		t.Fatalf("%d live and %d free leaves for a window of %d CIDs", live, len(tab.free), cidWindow)
	}
}

func TestCIDTableRejectsNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(nil) did not panic: nil is how Get says absent")
		}
	}()
	new(CIDTable[int]).Put(1, nil)
}
