package nvme

import "iter"

// A CID table is split into leaves of cidLeafSize consecutive identifiers
// under a directory of at most cidDirSize leaves: 256 × 256 covers the 16-bit
// CID space with 2 KiB per leaf on a 64-bit machine.
const (
	cidLeafBits = 8
	cidLeafSize = 1 << cidLeafBits
	cidDirSize  = 1 << (16 - cidLeafBits)
)

// CIDTable finds the record of an outstanding command by its command
// identifier, the way the hardware it models does: by indexing, not hashing.
// It is for identifiers that roam the whole 16-bit space while few are
// outstanding at once — the host adaptor hands out the next sequential CID
// that is not pending, so the live ones form a window that slides through the
// space — where a flat 65 536-entry array would be half a megabyte per table.
// A leaf exists only while it holds an entry; an emptied leaf goes to a free
// list and serves the next range the window reaches, so a table at steady
// state allocates nothing, and the directory grows only as far as the highest
// CID ever stored. Index order is CID order: All needs no sort.
//
// The zero value is an empty table. A stored value is never nil; nil is how
// Get and Delete say "no such command".
type CIDTable[T any] struct {
	dir  []*cidLeaf[T]
	free []*cidLeaf[T]
	n    int
}

type cidLeaf[T any] struct {
	n    int
	slot [cidLeafSize]*T
}

// Len returns the number of entries.
func (t *CIDTable[T]) Len() int { return t.n }

// Get returns the entry stored under cid, or nil.
func (t *CIDTable[T]) Get(cid uint16) *T {
	if i := int(cid >> cidLeafBits); i < len(t.dir) {
		if l := t.dir[i]; l != nil {
			return l.slot[cid%cidLeafSize]
		}
	}
	return nil
}

// Put stores v under cid, replacing any entry already there.
func (t *CIDTable[T]) Put(cid uint16, v *T) {
	if v == nil {
		panic("nvme: nil entry stored in a CID table")
	}
	i := int(cid >> cidLeafBits)
	for len(t.dir) <= i {
		t.dir = append(t.dir, nil)
	}
	l := t.dir[i]
	if l == nil {
		if k := len(t.free); k > 0 {
			l = t.free[k-1]
			t.free = t.free[:k-1]
		} else {
			l = new(cidLeaf[T])
		}
		t.dir[i] = l
	}
	s := &l.slot[cid%cidLeafSize]
	if *s == nil {
		l.n++
		t.n++
	}
	*s = v
}

// Delete removes and returns the entry stored under cid, or returns nil.
func (t *CIDTable[T]) Delete(cid uint16) *T {
	i := int(cid >> cidLeafBits)
	if i >= len(t.dir) || t.dir[i] == nil {
		return nil
	}
	l := t.dir[i]
	s := &l.slot[cid%cidLeafSize]
	v := *s
	if v == nil {
		return nil
	}
	*s = nil
	t.n--
	if l.n--; l.n == 0 {
		t.dir[i] = nil
		t.free = append(t.free, l)
	}
	return v
}

// All iterates over the entries in ascending CID order. The loop body may
// delete the entry it was handed, or any other: the walk looks every slot up
// afresh, so it visits exactly the entries present when it reaches them.
func (t *CIDTable[T]) All() iter.Seq2[uint16, *T] {
	return func(yield func(uint16, *T) bool) {
		for i := 0; i < len(t.dir); i++ {
			for j := 0; j < cidLeafSize && t.dir[i] != nil; j++ {
				if v := t.dir[i].slot[j]; v != nil && !yield(uint16(i<<cidLeafBits|j), v) {
					return
				}
			}
		}
	}
}
