package ssd

import (
	"bytes"
	"encoding/binary"
	"strings"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// adminLatency is the controller-firmware processing time for admin
// commands; they run on the device's management core, not the I/O pipeline.
const adminLatency = 5 * sim.Microsecond

// execAdmin handles one admin command and returns (DW0 result, status).
func (d *SSD) execAdmin(p *sim.Proc, cmd nvme.Command) (uint32, nvme.Status) {
	p.Sleep(adminLatency)
	// Injected admin failure (firmware bugs, bring-up flakes): the command
	// completes with the rule's status instead of executing.
	if r := d.flt.Hit(fault.SSDAdmin, d.cfg.Serial, p.Now()); r != nil {
		st := nvme.Status(r.Status)
		if st == nvme.StatusSuccess {
			st = nvme.StatusInternal
		}
		d.tr.Emit(p.Now(), trFaultAdmin, uint64(cmd.Opcode), uint64(st), d.cfg.Serial)
		return 0, st
	}
	switch cmd.Opcode {
	case nvme.AdminIdentify:
		return 0, d.adminIdentify(p, cmd)
	case nvme.AdminCreateIOCQ, nvme.AdminCreateIOSQ, nvme.AdminDeleteIOCQ, nvme.AdminDeleteIOSQ:
		return 0, d.ctl.QueueAdmin(cmd)
	case nvme.AdminSetFeatures, nvme.AdminGetFeatures, nvme.AdminAbort:
		return 0, nvme.StatusSuccess
	case nvme.AdminGetLogPage:
		return 0, d.adminGetLogPage(p, cmd)
	case nvme.AdminNSManagement:
		return d.adminNSManagement(p, cmd)
	case nvme.AdminFWDownload:
		return 0, d.adminFWDownload(p, cmd)
	case nvme.AdminFWCommit:
		return 0, d.adminFWCommit(p, cmd)
	case nvme.AdminFormatNVM:
		return 0, d.adminFormat(cmd)
	default:
		return 0, nvme.StatusInvalidOpcode
	}
}

// dmaOutPage writes one identify/log page to PRP1 and charges the transfer.
func (d *SSD) dmaOutPage(p *sim.Proc, prp1 uint64, page []byte) {
	done := d.port.DMAWrite(prp1, len(page), page)
	if w := done - p.Now(); w > 0 {
		p.Sleep(w)
	}
}

func (d *SSD) adminIdentify(p *sim.Proc, cmd nvme.Command) nvme.Status {
	page := make([]byte, nvme.IdentifyPageSize)
	switch cmd.CDW10 & 0xFF {
	case nvme.CNSController:
		ic := nvme.IdentifyController{
			VID: 0x8086, SSVID: 0x8086,
			Serial:        d.cfg.Serial,
			Model:         d.cfg.Model,
			Firmware:      d.fwActive,
			NN:            maxNamespaces,
			TotalCapBytes: d.cfg.CapacityBytes,
		}
		ic.Encode(page)
	case nvme.CNSNamespace:
		ns := d.ns(cmd.NSID)
		if ns == nil {
			return nvme.StatusInvalidNamespace
		}
		in := nvme.IdentifyNamespace{NSZE: ns.sizeLBA, NCAP: ns.sizeLBA, NUSE: 0}
		in.Encode(page)
	case nvme.CNSActiveNSList:
		for i, id := range d.Namespaces() {
			if i >= nvme.IdentifyPageSize/4 {
				break
			}
			binary.LittleEndian.PutUint32(page[i*4:], id)
		}
	default:
		return nvme.StatusInvalidField
	}
	d.dmaOutPage(p, cmd.PRP1, page)
	return nvme.StatusSuccess
}

// SMART/health log page layout used by the I/O monitor: temperature at
// byte 1 (Kelvin, u16), percentage used at byte 5, media errors at 160.
func (d *SSD) adminGetLogPage(p *sim.Proc, cmd nvme.Command) nvme.Status {
	page := make([]byte, nvme.IdentifyPageSize)
	switch uint8(cmd.CDW10) {
	case 0x02: // SMART / health information
		binary.LittleEndian.PutUint16(page[1:], 273+35) // 35 C
		page[5] = 3                                     // 3% used
		binary.LittleEndian.PutUint64(page[32:], d.Ops.Reads)
		binary.LittleEndian.PutUint64(page[48:], d.Ops.Writes)
	case 0x03: // firmware slot information
		copy(page[8:16], padTo(d.fwActive, 8))
	default:
		return nvme.StatusInvalidField
	}
	d.dmaOutPage(p, cmd.PRP1, page)
	return nvme.StatusSuccess
}

// adminNSManagement implements namespace create (SEL=0, returns the new
// NSID in DW0) and delete (SEL=1).
func (d *SSD) adminNSManagement(p *sim.Proc, cmd nvme.Command) (uint32, nvme.Status) {
	switch cmd.CDW10 & 0xF {
	case 0: // create: payload page carries NSZE in blocks at offset 0
		buf := make([]byte, nvme.IdentifyPageSize)
		done := d.port.DMARead(cmd.PRP1, len(buf), buf)
		if w := done - p.Now(); w > 0 {
			p.Sleep(w)
		}
		sizeLBA := binary.LittleEndian.Uint64(buf)
		if sizeLBA == 0 {
			return 0, nvme.StatusInvalidField
		}
		if len(d.Namespaces()) >= maxNamespaces {
			return 0, nvme.StatusNSIDUnavailable
		}
		if d.allocLBA+sizeLBA > d.totalLBAs {
			return 0, nvme.StatusNSInsufficientCap
		}
		id := uint32(len(d.nss))
		d.nss = append(d.nss, &namespace{startLBA: d.allocLBA, sizeLBA: sizeLBA})
		d.allocLBA += sizeLBA
		return id, nvme.StatusSuccess
	case 1: // delete
		if d.ns(cmd.NSID) == nil {
			return 0, nvme.StatusInvalidNamespace
		}
		d.nss[cmd.NSID] = nil
		return 0, nvme.StatusSuccess
	default:
		return 0, nvme.StatusInvalidField
	}
}

// adminFWDownload stages a chunk of a firmware image. CDW10 is the transfer
// size in dwords minus one, CDW11 the dword offset. The chunk lands in the
// SSD's one chunk buffer and is copied into the staged image from there.
func (d *SSD) adminFWDownload(p *sim.Proc, cmd nvme.Command) nvme.Status {
	numd := int(cmd.CDW10) + 1
	off := int(cmd.CDW11) * 4
	n := numd * 4
	if cap(d.fwChunk) < n {
		d.fwChunk = make([]byte, n)
	}
	chunk := d.fwChunk[:n]
	done := d.port.DMARead(cmd.PRP1, n, chunk)
	d.stageFW(off, chunk)
	if w := done - p.Now(); w > 0 {
		p.Sleep(w)
	}
	// Flash staging area programming.
	p.Sleep(sim.Time(n) * 30) // ~30ns/byte: ~4ms for a 128K chunk
	return nvme.StatusSuccess
}

// stageFW copies chunk into the staged image at byte offset off. The staged
// image keeps only what it holds: a page of it is kept from the first chunk
// that lands a non-zero byte in it, and a page never kept reads as zeroes, as
// do the bytes between the chunks sent so far and the image's length — the
// end of the furthest chunk.
func (d *SSD) stageFW(off int, chunk []byte) {
	d.fwLen = max(d.fwLen, off+len(chunk))
	for len(chunk) > 0 {
		pg, in := off/BlockSize, off%BlockSize
		piece := chunk[:min(len(chunk), BlockSize-in)]
		if pg < len(d.fwPages) && d.fwPages[pg] != nil {
			copy(d.fwPages[pg][in:], piece)
		} else if !bytes.Equal(piece, zeroBlock[:len(piece)]) {
			for len(d.fwPages) <= pg {
				d.fwPages = append(d.fwPages, nil)
			}
			d.fwPages[pg] = new(block)
			copy(d.fwPages[pg][in:], piece)
		}
		off += len(piece)
		chunk = chunk[len(piece):]
	}
}

// adminFWCommit activates the staged image: the command completes
// successfully, then the controller drops off the bus for the activation +
// reset window (the 6-9 s the paper measures), after which it must be
// re-enabled and its queues rebuilt by whoever owns it.
func (d *SSD) adminFWCommit(p *sim.Proc, cmd nvme.Command) nvme.Status {
	if d.fwLen == 0 {
		return nvme.StatusInvalidFWImage
	}
	// The version is the image's first eight bytes, on its first page.
	var head [8]byte
	if len(d.fwPages) > 0 && d.fwPages[0] != nil {
		copy(head[:], d.fwPages[0][:])
	}
	newVer := strings.TrimRight(string(head[:]), " \x00")
	if newVer == "" {
		return nvme.StatusInvalidFWImage
	}
	rng := d.env.Rand("ssd/fw/" + d.cfg.Serial)
	for i := 0; i < d.upgrades; i++ {
		rng.Float64() // advance the stream so repeated upgrades differ
	}
	span := d.cfg.FWCommitMax - d.cfg.FWCommitMin
	dur := d.cfg.FWCommitMin
	if span > 0 {
		dur += sim.Time(rng.Float64() * float64(span))
	}
	d.env.Schedule(0, func() { d.beginReset(dur, newVer) })
	return nvme.StatusSuccess
}

func (d *SSD) beginReset(dur sim.Time, newVer string) {
	d.resetting = true
	d.env.Schedule(dur, func() {
		d.fwActive = newVer
		clear(d.fwPages)
		d.fwPages, d.fwLen = d.fwPages[:0], 0
		d.upgrades++
		d.resetting = false
		d.ctl.Disable() // queues are gone; owner must re-initialise
		cbs := d.onReady
		d.onReady = nil
		for _, fn := range cbs {
			fn()
		}
	})
}

// NotifyResetDone registers fn to run when the current reset window ends;
// fn runs immediately if no reset is in progress.
func (d *SSD) NotifyResetDone(fn func()) {
	if !d.resetting {
		fn()
		return
	}
	d.onReady = append(d.onReady, fn)
}

func (d *SSD) adminFormat(cmd nvme.Command) nvme.Status {
	ns := d.ns(cmd.NSID)
	if ns == nil {
		return nvme.StatusInvalidNamespace
	}
	d.zeroBlocks(ns.startLBA, ns.sizeLBA)
	return nvme.StatusSuccess
}

func padTo(s string, n int) []byte {
	b := make([]byte, n)
	copy(b, s)
	for i := len(s); i < n; i++ {
		b[i] = ' '
	}
	return b
}
