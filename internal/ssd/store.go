package ssd

// The sparse data store of CaptureData mode: byte-granular access over 4K
// blocks keyed by device LBA. Unwritten ranges read back as zeroes.

func (d *SSD) readBytes(start uint64, n int) []byte {
	return d.readBytesInto(make([]byte, n), start, n)
}

// readBytesInto is readBytes into a caller-owned buffer (len(out) == n),
// zeroing it first so sparse unwritten ranges read back as zeroes exactly
// like the fresh allocation readBytes makes. The data path reuses one
// staging buffer per in-flight command with it.
func (d *SSD) readBytesInto(out []byte, start uint64, n int) []byte {
	for i := range out {
		out[i] = 0
	}
	var off int
	for off < n {
		lba := (start + uint64(off)) / BlockSize
		in := int((start + uint64(off)) % BlockSize)
		l := BlockSize - in
		if l > n-off {
			l = n - off
		}
		if blk := d.store[lba]; blk != nil {
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
		blk := d.store[lba]
		if blk == nil {
			blk = make([]byte, BlockSize)
			d.store[lba] = blk
		}
		copy(blk[in:in+l], data[off:off+l])
		off += l
	}
}

func (d *SSD) zeroBlocks(lba, n uint64) {
	for i := uint64(0); i < n; i++ {
		delete(d.store, lba+i)
	}
}
