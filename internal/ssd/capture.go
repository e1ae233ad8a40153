package ssd

// Capture accessors for the crash-recovery subsystem (internal/crash):
// out-of-band reads/writes of the device's captured payload store,
// addressed by (namespace, LBA) like an NVMe command but consuming no
// virtual time and no queue slots. The crash manager uses them to copy
// journaled payloads at write-ack time, to clobber journal-covered blocks
// at a crash (the lost write-back cache), and to redo the journal at
// recovery. They only act when the rig captures real data
// (Config.CaptureData); on content-free rigs they are no-ops, exactly like
// the data-hazard fault points.

// CaptureRead returns a copy of nlb blocks at slba in namespace nsid, or
// nil when data capture is off or the namespace is unknown.
func (d *SSD) CaptureRead(nsid uint32, slba uint64, nlb uint32) []byte {
	if !d.cfg.CaptureData {
		return nil
	}
	ns := d.ns(nsid)
	if ns == nil {
		return nil
	}
	return d.readBytes((ns.startLBA+slba)*BlockSize, int(nlb)*BlockSize)
}

// CaptureWrite stores data (len = nlb blocks) at slba in namespace nsid.
func (d *SSD) CaptureWrite(nsid uint32, slba uint64, data []byte) {
	if !d.cfg.CaptureData || len(data) == 0 {
		return
	}
	ns := d.ns(nsid)
	if ns == nil {
		return
	}
	d.writeBytes((ns.startLBA+slba)*BlockSize, data)
}

// CaptureZero discards nlb blocks at slba in namespace nsid, so they read
// back as zeroes — the model of data lost from a volatile cache.
func (d *SSD) CaptureZero(nsid uint32, slba uint64, nlb uint32) {
	if !d.cfg.CaptureData {
		return
	}
	ns := d.ns(nsid)
	if ns == nil {
		return
	}
	d.zeroBlocks(ns.startLBA+slba, uint64(nlb))
}
