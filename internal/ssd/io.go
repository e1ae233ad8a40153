package ssd

import (
	"encoding/binary"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
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

// execIO handles one NVM command from an I/O queue and returns its status.
// sqID is the submission queue the command arrived on; with the CID it forms
// the device-domain span alias the engine backend may have registered.
func (d *SSD) execIO(p *sim.Proc, sqID uint16, cmd nvme.Command) nvme.Status {
	if d.resetting {
		return nvme.StatusNSNotReady
	}
	switch cmd.Opcode {
	case nvme.IOFlush:
		if d.cfg.Media != nil {
			d.cfg.Media.Flush(p)
		} else {
			p.Sleep(d.cfg.FlushLatency)
		}
		return nvme.StatusSuccess
	case nvme.IORead, nvme.IOWrite, nvme.IOWriteZeroes:
		// handled below
	default:
		return nvme.StatusInvalidOpcode
	}
	ns, ok := d.nss[cmd.NSID]
	if !ok {
		return nvme.StatusInvalidNamespace
	}
	slba := cmd.SLBA()
	nlb := uint64(cmd.NLB())
	if slba+nlb > ns.sizeLBA {
		return nvme.StatusLBAOutOfRange
	}
	if cmd.Opcode == nvme.IOWriteZeroes {
		d.zeroBlocks(ns.startLBA+slba, nlb)
		p.Sleep(d.cfg.WriteCacheLatency)
		return nvme.StatusSuccess
	}
	n := int(nlb) * BlockSize
	segs, err := nvme.WalkPRPs(&prpReader{d: d, p: p}, cmd.PRP1, cmd.PRP2, n)
	if err != nil {
		return nvme.StatusInvalidField
	}
	start := p.Now()
	// Device-domain alias for timeline attribution (die waits, NAND/DMA
	// phase intervals); zero when timeline recording is off.
	var alias uint64
	if d.tl {
		alias = obs.DevKey(d.cfg.Serial, sqID, cmd.CID)
	}
	devByte := (ns.startLBA + slba) * BlockSize
	if d.tr != nil {
		d.tr.Emit(start, "ssd", "issue", uint64(cmd.Opcode)<<56|devByte, uint64(n), d.cfg.Serial)
	}
	var hzd hazards
	if d.flt != nil {
		if cmd.Opcode == nvme.IORead {
			if r := d.mediaFault(devByte); r != nil {
				if r.Duration > 0 {
					p.Sleep(sim.Time(r.Duration))
				}
				if r.Status != 0 {
					return nvme.Status(r.Status)
				}
			}
		}
		hzd = d.dataHazards(cmd.Opcode, devByte, n)
	}
	var media sim.Time
	if cmd.Opcode == nvme.IORead {
		media = d.doRead(p, devByte, segs, n, hzd, alias)
		d.ReadStats.Record(n, p.Now()-start)
		d.mReadOps.Inc()
		d.mReadBytes.AddAt(int64(p.Now()), uint64(n))
	} else {
		media = d.doWrite(p, devByte, segs, n, hzd.torn, alias)
		d.WriteStats.Record(n, p.Now()-start)
		d.mWriteOps.Inc()
		d.mWriteBytes.AddAt(int64(p.Now()), uint64(n))
	}
	if d.met != nil && media > 0 {
		d.mMedia.Record(int64(media))
		d.met.SpanMedia(obs.DevKey(d.cfg.Serial, sqID, cmd.CID), int64(media))
		if alias != 0 {
			// Phase intervals derived from (start, media, now): a read's
			// media phase leads and its upstream DMA follows; a write
			// fetches over DMA first and its media phase trails.
			now, m := int64(p.Now()), int64(media)
			if cmd.Opcode == nvme.IORead {
				d.met.SpanPhases(alias, int64(start), int64(start)+m, int64(start)+m, now)
			} else {
				d.met.SpanPhases(alias, now-m, now, int64(start), now-m)
			}
		}
	}
	if d.tr != nil {
		d.tr.Emit(p.Now(), "ssd", "complete", uint64(cmd.Opcode)<<56|devByte, uint64(p.Now()-start), d.cfg.Serial)
	}
	return nvme.StatusSuccess
}

// doRead performs the media read and DMA-writes the data upstream. It
// returns the media phase's duration (NAND array + internal read bus, or the
// pluggable medium's service time) for span attribution.
func (d *SSD) doRead(p *sim.Proc, devByte uint64, segs []nvme.Segment, n int, hzd hazards, alias uint64) sim.Time {
	// A misdirected read serves the neighbouring block's bytes (an FTL
	// mapping slip): only the data source shifts — timing, stats, and the
	// completion status all describe the block that was asked for.
	src := devByte
	if hzd.misdirect {
		src += BlockSize
	}
	t0 := p.Now()
	if d.cfg.Media != nil {
		d.cfg.Media.Read(p, devByte, n)
		media := p.Now() - t0
		d.dmaOut(p, src, segs, hzd.corrupt)
		return media
	}
	stripes := (n + d.cfg.StripeBytes - 1) / d.cfg.StripeBytes
	if stripes == 1 {
		lat := d.jitter(d.cfg.NANDReadLatency)
		ta := p.Now()
		d.dies.Use(p, lat, nil)
		if alias != 0 {
			// Time spent queued for the die: elapsed minus the service time.
			d.met.SpanWaitDev(alias, timeline.WaitDie, int64(p.Now()-ta-lat))
		}
	} else {
		// Stripes read in parallel across the die pool; wait for all.
		done := make([]*sim.Event, stripes)
		for i := 0; i < stripes; i++ {
			lat := d.jitter(d.cfg.NANDReadLatency)
			proc := d.env.Go("ssd/nand", func(sp *sim.Proc) {
				ta := sp.Now()
				d.dies.Use(sp, lat, nil)
				if alias != 0 {
					d.met.SpanWaitDev(alias, timeline.WaitDie, int64(sp.Now()-ta-lat))
				}
			})
			done[i] = proc.Done()
		}
		for _, ev := range done {
			p.Wait(ev)
		}
	}
	// Internal read bus admission: this pacer is what bounds sequential
	// read bandwidth at the paper's 3.3 GB/s.
	d.readPacer.Transfer(p, int64(n))
	media := p.Now() - t0
	d.dmaOut(p, src, segs, hzd.corrupt)
	return media
}

// dmaOut pushes the data upstream through the port, per PRP segment. With
// corrupt set, one byte mid-way through the first segment is flipped —
// deep enough into the block to land in payload body rather than any
// caller-side header, modelling corruption the device's ECC missed.
func (d *SSD) dmaOut(p *sim.Proc, devByte uint64, segs []nvme.Segment, corrupt bool) {
	var last sim.Time
	off := 0
	for _, seg := range segs {
		var data []byte
		if d.cfg.CaptureData {
			data = d.readBytes(devByte+uint64(off), seg.Len)
			if corrupt && len(data) > 0 {
				data[len(data)/2] ^= 0xA5
				corrupt = false
			}
		}
		t := d.port.DMAWrite(seg.Addr, seg.Len, data)
		if t > last {
			last = t
		}
		off += seg.Len
	}
	if w := last - p.Now(); w > 0 {
		p.Sleep(w)
	}
}

// doWrite fetches the data from upstream and admits it to the write cache.
// It returns the media phase's duration (cache admission behind the DMA
// fetch) for span attribution.
func (d *SSD) doWrite(p *sim.Proc, devByte uint64, segs []nvme.Segment, n int, torn bool, alias uint64) sim.Time {
	var last sim.Time
	bufs := make([][]byte, len(segs))
	for i, seg := range segs {
		if d.cfg.CaptureData {
			bufs[i] = make([]byte, seg.Len)
		}
		t := d.port.DMARead(seg.Addr, seg.Len, bufs[i])
		if t > last {
			last = t
		}
	}
	if w := last - p.Now(); w > 0 {
		p.Sleep(w)
	}
	t0 := p.Now()
	if d.cfg.Media != nil {
		d.cfg.Media.Write(p, devByte, n)
	} else {
		// Sustained-write admission: the pacer models the flash program
		// rate behind the cache, which bounds write bandwidth and IOPS.
		if alias != 0 {
			// The pacer's backlog is the queueing delay this write will
			// see behind earlier writes' program time — the write-side
			// analog of read die-queue wait.
			d.met.SpanWaitDev(alias, timeline.WaitDie, int64(d.writePacer.Backlog()))
		}
		d.writePacer.Transfer(p, int64(n))
		p.Sleep(d.jitter(d.cfg.WriteCacheLatency))
	}
	media := p.Now() - t0
	if d.cfg.CaptureData {
		// A torn write persists only the first half of the payload while
		// still completing with success: the tail keeps whatever bytes the
		// media held before (power-cut tearing past the write cache).
		keep := n
		if torn {
			keep = n / 2
		}
		off := 0
		for _, b := range bufs {
			if off >= keep {
				break
			}
			if off+len(b) > keep {
				b = b[:keep-off]
			}
			d.writeBytes(devByte+uint64(off), b)
			off += len(b)
		}
	}
	return media
}

// prpReader fetches PRP list pages through the SSD's port, caching whole
// pages the way a real controller's PRP fetch engine does, and charging the
// calling process the fetch round trip once per page.
type prpReader struct {
	d     *SSD
	p     *sim.Proc
	pages map[uint64][]byte
}

func (r *prpReader) ReadU64(addr uint64) uint64 {
	pg := addr &^ uint64(nvme.PageSize-1)
	b, ok := r.pages[pg]
	if !ok {
		if r.pages == nil {
			r.pages = make(map[uint64][]byte)
		}
		b = make([]byte, nvme.PageSize)
		done := r.d.port.DMARead(pg, nvme.PageSize, b)
		if w := done - r.p.Now(); w > 0 {
			r.p.Sleep(w)
		}
		r.pages[pg] = b
	}
	off := addr - pg
	return binary.LittleEndian.Uint64(b[off:])
}

// --- sparse data store (byte-granular over 4K blocks) ---

func (d *SSD) readBytes(start uint64, n int) []byte {
	return d.readBytesInto(make([]byte, n), start, n)
}

// readBytesInto is readBytes into a caller-owned buffer (len(out) == n),
// zeroing it first so sparse unwritten ranges read back as zeroes exactly
// like the fresh allocation readBytes makes. The fast path reuses one
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
