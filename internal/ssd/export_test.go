package ssd

import "unsafe"

// StoreFootprint is what the block rule lets the store keep: for each stored
// block its used prefix rounded up to a granule, or a whole block when that
// is more than half of one; and the bytes of the table's leaves.
func (d *SSD) StoreFootprint() (blocks int, rule, leaves int64) {
	full := make([]byte, BlockSize)
	for _, l := range d.store.leaves {
		leaves += int64(unsafe.Sizeof(*l))
		for _, b := range l {
			if b == nil {
				continue
			}
			blocks++
			clear(full[copy(full, b):])
			rule += int64(storedLen(full))
		}
	}
	return blocks, rule, leaves
}

// DropStore forgets every stored block, so what the store alone kept alive
// can be collected.
func (d *SSD) DropStore() { d.store = blockTable{} }

// WholeBlockCopy returns the store's blocks as whole arrays, each a fresh
// block of BlockSize bytes: the store as it was when it kept every block
// whole, for a retention check to be shown wrong on.
func (d *SSD) WholeBlockCopy() any {
	var c blockTable
	for key, l := range d.store.leaves {
		for i, b := range l {
			if b != nil {
				w := make([]byte, BlockSize)
				copy(w, b)
				c.put(key*leafBlocks+uint64(i), w)
			}
		}
	}
	return &c
}
