// Package nvme implements the subset of the NVM Express protocol that
// BM-Store traffics in: 64-byte submission entries, 16-byte completion
// entries with phase tags, PRP and PRP-list data pointers, queue-ring
// arithmetic, identify structures, and the admin/IO opcodes the paper's
// evaluation exercises (including namespace management and firmware
// download/commit, which back the controller's hot-upgrade).
//
// Everything here is plain data and bit layout — no simulation time — so the
// same code serves the host driver, the BMS-Engine, and the SSD model.
package nvme

import "encoding/binary"

// SQESize and CQESize are the NVMe submission/completion entry sizes.
const (
	SQESize = 64
	CQESize = 16
)

// Admin opcodes (NVMe 1.4 figure 139).
const (
	AdminDeleteIOSQ   = 0x00
	AdminCreateIOSQ   = 0x01
	AdminGetLogPage   = 0x02
	AdminDeleteIOCQ   = 0x04
	AdminCreateIOCQ   = 0x05
	AdminIdentify     = 0x06
	AdminAbort        = 0x08
	AdminSetFeatures  = 0x09
	AdminGetFeatures  = 0x0A
	AdminFWCommit     = 0x10
	AdminFWDownload   = 0x11
	AdminNSManagement = 0x0D
	AdminNSAttach     = 0x15
	AdminFormatNVM    = 0x80
)

// I/O opcodes (NVM command set).
const (
	IOFlush       = 0x00
	IOWrite       = 0x01
	IORead        = 0x02
	IOWriteZeroes = 0x08
	IODSM         = 0x09
)

// Status is the 15-bit NVMe status field (SCT<<8 | SC), without the phase
// bit. Zero is success.
type Status uint16

// Generic command status values.
const (
	StatusSuccess          Status = 0x00
	StatusInvalidOpcode    Status = 0x01
	StatusInvalidField     Status = 0x02
	StatusCmdIDConflict    Status = 0x03
	StatusDataTransferErr  Status = 0x04
	StatusAborted          Status = 0x07
	StatusInvalidNamespace Status = 0x0B
	StatusInternal         Status = 0x06
	StatusNSNotReady       Status = 0x82 // here: media/device transient
	StatusLBAOutOfRange    Status = 0x80
	StatusCapacityExceeded Status = 0x81
)

// Command-specific status values used by this implementation.
const (
	StatusInvalidQueueID       Status = 0x101
	StatusInvalidQueueSz       Status = 0x102
	StatusInvalidFWSlot        Status = 0x106
	StatusInvalidFWImage       Status = 0x107
	StatusInvalidQueueDeletion Status = 0x10C // deleting a CQ that still has an SQ bound
	StatusNSInsufficientCap    Status = 0x115
	StatusNSIDUnavailable      Status = 0x116
	StatusNSAlreadyAttached    Status = 0x118
)

// Media-error status values (SCT=2).
const (
	StatusUnrecoveredRead Status = 0x281
)

// IsError reports whether s indicates failure.
func (s Status) IsError() bool { return s != StatusSuccess }

// Retryable reports whether a failed command is worth re-issuing: the
// condition is transient (device resetting, quiesced path, torn transfer,
// abort race) rather than a protocol or addressing error. Unrecovered media
// reads are NOT retryable — the data is gone; re-reading the same LBA
// returns the same error.
func (s Status) Retryable() bool {
	switch s {
	case StatusNSNotReady, StatusInternal, StatusDataTransferErr, StatusAborted:
		return true
	}
	return false
}

// Command is one 64-byte NVMe submission queue entry in decoded form.
type Command struct {
	Opcode uint8
	Flags  uint8 // FUSE (1:0) and PSDT (7:6)
	CID    uint16
	NSID   uint32
	MPTR   uint64
	PRP1   uint64
	PRP2   uint64
	CDW10  uint32
	CDW11  uint32
	CDW12  uint32
	CDW13  uint32
	CDW14  uint32
	CDW15  uint32
}

// Encode serialises the command into its 64-byte wire layout.
func (c *Command) Encode(b *[SQESize]byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(c.Opcode)|uint32(c.Flags)<<8|uint32(c.CID)<<16)
	le.PutUint32(b[4:], c.NSID)
	le.PutUint32(b[8:], 0)
	le.PutUint32(b[12:], 0)
	le.PutUint64(b[16:], c.MPTR)
	le.PutUint64(b[24:], c.PRP1)
	le.PutUint64(b[32:], c.PRP2)
	le.PutUint32(b[40:], c.CDW10)
	le.PutUint32(b[44:], c.CDW11)
	le.PutUint32(b[48:], c.CDW12)
	le.PutUint32(b[52:], c.CDW13)
	le.PutUint32(b[56:], c.CDW14)
	le.PutUint32(b[60:], c.CDW15)
}

// DecodeCommand parses a 64-byte submission entry.
func DecodeCommand(b *[SQESize]byte) Command {
	le := binary.LittleEndian
	dw0 := le.Uint32(b[0:])
	return Command{
		Opcode: uint8(dw0),
		Flags:  uint8(dw0 >> 8),
		CID:    uint16(dw0 >> 16),
		NSID:   le.Uint32(b[4:]),
		MPTR:   le.Uint64(b[16:]),
		PRP1:   le.Uint64(b[24:]),
		PRP2:   le.Uint64(b[32:]),
		CDW10:  le.Uint32(b[40:]),
		CDW11:  le.Uint32(b[44:]),
		CDW12:  le.Uint32(b[48:]),
		CDW13:  le.Uint32(b[52:]),
		CDW14:  le.Uint32(b[56:]),
		CDW15:  le.Uint32(b[60:]),
	}
}

// SLBA returns the starting LBA of a read/write command (CDW11:CDW10).
func (c *Command) SLBA() uint64 {
	return uint64(c.CDW10) | uint64(c.CDW11)<<32
}

// SetSLBA stores the starting LBA. The BMS-Engine uses this to rewrite the
// host LBA into the physical LBA after the mapping-table lookup.
func (c *Command) SetSLBA(lba uint64) {
	c.CDW10 = uint32(lba)
	c.CDW11 = uint32(lba >> 32)
}

// NLB returns the number of logical blocks, converting from the protocol's
// zero-based field.
func (c *Command) NLB() uint32 { return (c.CDW12 & 0xFFFF) + 1 }

// SetNLB stores the block count (1-based in, zero-based on the wire).
func (c *Command) SetNLB(n uint32) {
	c.CDW12 = c.CDW12&^uint32(0xFFFF) | (n-1)&0xFFFF
}

// Completion is one 16-byte completion queue entry in decoded form. Phase
// is the phase tag bit the host uses to detect new entries.
type Completion struct {
	DW0    uint32 // command-specific result
	SQHead uint16
	SQID   uint16
	CID    uint16
	Phase  bool
	Status Status
}

// Encode serialises the completion into its 16-byte wire layout.
func (c *Completion) Encode(b *[CQESize]byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], c.DW0)
	le.PutUint32(b[4:], 0)
	le.PutUint32(b[8:], uint32(c.SQHead)|uint32(c.SQID)<<16)
	dw3 := uint32(c.CID) | uint32(c.Status)<<17
	if c.Phase {
		dw3 |= 1 << 16
	}
	le.PutUint32(b[12:], dw3)
}

// DecodeCompletion parses a 16-byte completion entry.
func DecodeCompletion(b *[CQESize]byte) Completion {
	le := binary.LittleEndian
	dw3 := le.Uint32(b[12:])
	return Completion{
		DW0:    le.Uint32(b[0:]),
		SQHead: uint16(le.Uint32(b[8:])),
		SQID:   uint16(le.Uint32(b[8:]) >> 16),
		CID:    uint16(dw3),
		Phase:  dw3&(1<<16) != 0,
		Status: Status(dw3 >> 17),
	}
}
