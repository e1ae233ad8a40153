package ssd

import (
	"bmstore/internal/fault"
	"bmstore/internal/nvme"
)

// hazards carries the data-hazard faults evaluated for one command. They
// damage payload bytes on the captured-data path while the command still
// completes with success — silent corruption, not an error.
type hazards struct {
	corrupt   bool // flip one byte of the read payload
	misdirect bool // serve the neighbouring block's data
	torn      bool // persist only the first half of the write payload
}

// mediaFault evaluates the injected media fault of a read starting at
// devByte — a latency spike (Duration), an unrecoverable/transient status
// (Status), or both — and returns the fired rule, or nil. The die is the one
// serving the operation's first stripe, so die-targeted rules model a single
// failing NAND package. Callers hold a non-nil injector.
func (d *SSD) mediaFault(devByte uint64) *fault.Rule {
	die := int(devByte / uint64(d.cfg.StripeBytes) % uint64(d.cfg.Dies))
	r := d.flt.HitMedia(d.cfg.Serial, die, d.env.Now())
	if r != nil && d.tr != nil {
		d.tr.Emit(d.env.Now(), "fault", "media", uint64(die)<<16|uint64(r.Status), uint64(r.Duration), d.cfg.Serial)
	}
	return r
}

// dataHazards evaluates the data-hazard faults of one read or write. They
// are evaluated only when the rig captures real data (there is no payload to
// damage otherwise), so hazard rules on a digest-only rig count zero
// injections instead of silently "firing". Callers hold a non-nil injector.
func (d *SSD) dataHazards(op uint8, devByte uint64, n int) (hzd hazards) {
	if !d.cfg.CaptureData {
		return hzd
	}
	hit := func(pt fault.Point) bool {
		if d.flt.Hit(pt, d.cfg.Serial, d.env.Now()) == nil {
			return false
		}
		if d.tr != nil {
			d.tr.Emit(d.env.Now(), "fault", pt.String(), devByte, uint64(n), d.cfg.Serial)
		}
		return true
	}
	switch op {
	case nvme.IORead:
		hzd.corrupt = hit(fault.MediaCorrupt)
		hzd.misdirect = hit(fault.ReadMisdirect)
	case nvme.IOWrite:
		hzd.torn = hit(fault.WriteTorn)
	}
	return hzd
}

// --- sparse data store (byte-granular over 4K blocks) ---

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
