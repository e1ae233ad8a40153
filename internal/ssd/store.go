package ssd

import "bytes"

// The sparse data store of CaptureData mode: byte-granular access over 4K
// blocks found by device LBA. Unwritten ranges read back as zeroes.
//
// A stored block keeps only what it holds. It is a slice whose length is the
// block's stored prefix, and the rest of the block reads as zeroes; an
// all-zero block is not stored at all. Two kinds of array hold one:
//
//   - a whole block (length BlockSize) is an array the store took from a
//     command by exchange: storeBlock installs a staging buffer whose used
//     prefix is more than half a block as the block, and the whole block it
//     displaces becomes that command's next staging buffer;
//   - a short block (length a multiple of granule, at most half a block) is
//     an array the store owns, exactly that long, cut from the SSD's slab:
//     storeBlock copies a mostly zero segment's used prefix into it — into
//     the LBA's own short array when that has the length already — and the
//     staging buffer stays with the command.
//
// Partial, unaligned and out-of-band writes copy in (writeBytes), growing a
// short block to a whole one when they reach past its prefix. Blocks leave
// only by copy (readBytesInto) or for the length of one DMAWrite call, which
// consumes them before returning. No array is ever both a stored block and
// something else: a whole array a short write or a zeroing displaces waits on
// the SSD's bounded spare list until a staging slot or a growing block takes
// it, and a short array the store lets go of is dropped.

type block = [BlockSize]byte

// zeroBlock is what an unwritten LBA, and the tail past a stored prefix, reads
// as. Nothing may write it.
var zeroBlock block

// granule is the unit a stored prefix is kept in: a block is stored up to the
// end of the last granule that holds a non-zero byte.
const granule = 512

// maxSpares bounds the SSD's spare list of whole arrays.
const maxSpares = 32

// slabBytes is the allocation short blocks are carved from. A short block the
// store lets go of is dropped where it lies, so a live one keeps at most this
// much of the heap alive.
const slabBytes = 2 * BlockSize

// storedLen is the length block b is stored at: its used prefix — the end of
// its last granule holding a non-zero byte, 0 when it is all zeroes — or
// BlockSize when that passes half a block. Granules are compared against
// zeroBlock from the end, so a block of data costs one comparison.
func storedLen(b []byte) int {
	n := len(b)
	for n > 0 && bytes.Equal(b[n-granule:n], zeroBlock[:granule]) {
		n -= granule
	}
	if n > BlockSize/2 {
		return BlockSize
	}
	return n
}

// leafBlocks is how many consecutive LBAs share one leaf of the block table:
// a leaf covers 2 MiB of device.
const leafBlocks = 512

type leaf = [leafBlocks][]byte

// blockTable finds a block by LBA: a leaf of leafBlocks slots through a map
// keyed by lba / leafBlocks, with the last leaf used remembered — a command
// touches consecutive LBAs, so the map is consulted once per leaf run, not
// once per block. The LBA space is too sparse for anything flat.
type blockTable struct {
	leaves  map[uint64]*leaf
	last    *leaf
	lastKey uint64
}

func (t *blockTable) leaf(key uint64) *leaf {
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
func (t *blockTable) get(lba uint64) []byte {
	if l := t.leaf(lba / leafBlocks); l != nil {
		return l[lba%leafBlocks]
	}
	return nil
}

// slot returns where the block at lba is kept, making its leaf if need be.
func (t *blockTable) slot(lba uint64) *[]byte {
	key := lba / leafBlocks
	l := t.leaf(key)
	if l == nil {
		if t.leaves == nil {
			t.leaves = make(map[uint64]*leaf)
		}
		l = new(leaf)
		t.leaves[key] = l
		t.last, t.lastKey = l, key
	}
	return &l[lba%leafBlocks]
}

// put stores b at lba — nil forgets the block — and returns what was there.
func (t *blockTable) put(lba uint64, b []byte) []byte {
	if b == nil && t.leaf(lba/leafBlocks) == nil {
		return nil
	}
	s := t.slot(lba)
	old := *s
	*s = b
	return old
}

// persist stores the first keep bytes of a write at device byte at, its
// payload staged in bufs, one buffer per PRP segment. A whole aligned block
// goes to storeBlock, and its buffer in bufs is replaced by the one that
// segment stages into next; anything else — a segment shorter than a block or
// across two, or the block a torn write ends in — is copied in.
func (d *SSD) persist(at uint64, bufs [][]byte, keep int) {
	off := 0
	for i, b := range bufs {
		if off >= keep {
			break
		}
		p := at + uint64(off)
		if len(b) == BlockSize && p%BlockSize == 0 && off+BlockSize <= keep {
			bufs[i] = d.storeBlock(p/BlockSize, b)
			off += BlockSize
			continue
		}
		if off+len(b) > keep {
			b = b[:keep-off]
		}
		d.writeBytes(p, b)
		off += len(b)
	}
}

// storeBlock persists the whole aligned block at lba from b, a command's
// staging buffer, and returns the buffer that staging slot fills next: b
// itself, the whole block b displaced, or nil.
func (d *SSD) storeBlock(lba uint64, b []byte) []byte {
	n := storedLen(b)
	if n == BlockSize {
		if old := d.store.put(lba, b); cap(old) == BlockSize {
			return old[:BlockSize]
		}
		return nil
	}
	if n == 0 {
		d.spare(d.store.put(lba, nil))
		return b
	}
	s := d.store.slot(lba)
	if cap(*s) != n {
		d.spare(*s)
		*s = d.shortArray(n)
	}
	copy(*s, b)
	return b
}

// shortArray returns an array of n bytes, contents unspecified, carved from
// the SSD's slab: slabBytes cut into short blocks as they are needed, so one
// allocation serves several.
func (d *SSD) shortArray(n int) []byte {
	if len(d.slab) < n {
		d.slab = make([]byte, slabBytes)
	}
	b := d.slab[:n:n]
	d.slab = d.slab[n:]
	return b
}

// spare keeps a displaced whole array for reuse, if the spare list has room;
// anything else is dropped.
func (d *SSD) spare(b []byte) {
	if cap(b) == BlockSize && len(d.spares) < maxSpares {
		d.spares = append(d.spares, b[:BlockSize])
	}
}

// wholeArray returns an array of BlockSize bytes, contents unspecified: a
// spare if there is one.
func (d *SSD) wholeArray() []byte {
	if n := len(d.spares); n > 0 {
		b := d.spares[n-1]
		d.spares = d.spares[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

// blockBytes returns the n bytes at device byte at for a DMA to copy from where
// they lie, when they lie in one block and on one side of its stored prefix's
// end: the stored bytes, or zeroBlock's past them. Otherwise it returns nil,
// and the bytes must be staged (readBytesInto).
func (d *SSD) blockBytes(at uint64, n int) []byte {
	in := int(at % BlockSize)
	if in+n > BlockSize {
		return nil
	}
	blk := d.store.get(at / BlockSize)
	switch {
	case in+n <= len(blk):
		return blk[in : in+n]
	case in >= len(blk):
		return zeroBlock[in : in+n]
	}
	return nil
}

// readSource returns the n bytes at device byte at for one read DMA: where
// they lie (blockBytes), or else gathered into *stage — with the byte at their
// middle flipped when corrupt.
func (d *SSD) readSource(at uint64, n int, corrupt bool, stage *[]byte) []byte {
	if !corrupt {
		if b := d.blockBytes(at, n); b != nil {
			return b
		}
	}
	if cap(*stage) < n {
		*stage = make([]byte, n)
	}
	b := d.readBytesInto((*stage)[:n], at, n)
	if corrupt && n > 0 {
		b[n/2] ^= 0xA5
	}
	return b
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
		if blk := d.store.get(lba); in < len(blk) {
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
		s := d.store.slot(lba)
		if in+l > len(*s) {
			// Past the stored prefix: the block becomes whole.
			blk := d.wholeArray()
			clear(blk[copy(blk, *s):])
			*s = blk
		}
		copy((*s)[in:in+l], data[off:off+l])
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
				d.spare(d.store.put(lba, nil))
			}
		}
		lba = next
	}
}
