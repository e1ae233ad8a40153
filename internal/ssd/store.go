package ssd

// The sparse data store of CaptureData mode: byte-granular access over 4K
// blocks found by device LBA. Unwritten ranges read back as zeroes.
//
// A stored block is an array the store owns outright. It gets there either by
// copy (writeBytes: partial, unaligned and out-of-band writes) or by exchange
// (blockTable.put from the write path: the command's staging buffer becomes the
// block and the block it displaces becomes the command's next staging
// buffer), and it leaves only by copy (readBytesInto) or for the length of one
// DMAWrite call, which consumes it before returning. No array is ever both a
// stored block and something else.

type block = [BlockSize]byte

// zeroBlock is what an unwritten LBA reads as. Nothing may write it.
var zeroBlock block

// leafBlocks is how many consecutive LBAs share one leaf of the block table:
// a leaf is one 4 KiB page of pointers and covers 2 MiB of device.
const leafBlocks = 512

// blockTable finds a block by LBA: a leaf of leafBlocks slots through a map
// keyed by lba / leafBlocks, with the last leaf used remembered — a command
// touches consecutive LBAs, so the map is consulted once per leaf run, not
// once per block. The LBA space is too sparse for anything flat.
type blockTable struct {
	leaves  map[uint64]*[leafBlocks]*block
	last    *[leafBlocks]*block
	lastKey uint64
}

func (t *blockTable) leaf(key uint64) *[leafBlocks]*block {
	if t.last != nil && t.lastKey == key {
		return t.last
	}
	l := t.leaves[key]
	if l != nil {
		t.last, t.lastKey = l, key
	}
	return l
}

// get returns the block stored at lba, nil if it was never written.
func (t *blockTable) get(lba uint64) *block {
	if l := t.leaf(lba / leafBlocks); l != nil {
		return l[lba%leafBlocks]
	}
	return nil
}

// put stores b at lba — nil forgets the block — and returns what was there.
func (t *blockTable) put(lba uint64, b *block) *block {
	key := lba / leafBlocks
	l := t.leaf(key)
	if l == nil {
		if b == nil {
			return nil
		}
		if t.leaves == nil {
			t.leaves = make(map[uint64]*[leafBlocks]*block)
		}
		l = new([leafBlocks]*block)
		t.leaves[key] = l
		t.last, t.lastKey = l, key
	}
	old := l[lba%leafBlocks]
	l[lba%leafBlocks] = b
	return old
}

func (d *SSD) readBytes(start uint64, n int) []byte {
	return d.readBytesInto(make([]byte, n), start, n)
}

// readBytesInto is readBytes into a caller-owned buffer (len(out) == n),
// zeroing it first so sparse unwritten ranges read back as zeroes exactly
// like the fresh allocation readBytes makes.
func (d *SSD) readBytesInto(out []byte, start uint64, n int) []byte {
	clear(out)
	var off int
	for off < n {
		lba := (start + uint64(off)) / BlockSize
		in := int((start + uint64(off)) % BlockSize)
		l := BlockSize - in
		if l > n-off {
			l = n - off
		}
		if blk := d.store.get(lba); blk != nil {
			copy(out[off:off+l], blk[in:])
		}
		off += l
	}
	return out
}

func (d *SSD) writeBytes(start uint64, data []byte) {
	var off int
	for off < len(data) {
		lba := (start + uint64(off)) / BlockSize
		in := int((start + uint64(off)) % BlockSize)
		l := BlockSize - in
		if l > len(data)-off {
			l = len(data) - off
		}
		blk := d.store.get(lba)
		if blk == nil {
			blk = new(block)
			d.store.put(lba, blk)
		}
		copy(blk[in:in+l], data[off:off+l])
		off += l
	}
}

// zeroBlocks forgets n blocks from lba. A range can be a whole namespace, so
// it steps over the leaves that do not exist.
func (d *SSD) zeroBlocks(lba, n uint64) {
	for end := lba + n; lba < end; {
		next := min((lba/leafBlocks+1)*leafBlocks, end)
		if d.store.leaf(lba/leafBlocks) != nil {
			for ; lba < next; lba++ {
				d.store.put(lba, nil)
			}
		}
		lba = next
	}
}
