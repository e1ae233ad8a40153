package nvme

// Controller registers on BAR0 (the subset of the NVMe register map the
// model uses); the host driver, the engine's host adaptor and the target
// controller all address them by these offsets.
const (
	RegCC  = 0x14 // controller configuration (bit 0: enable)
	RegAQA = 0x24 // admin queue attributes: ACQS<<16 | ASQS (sizes-1)
	RegASQ = 0x28 // admin SQ base
	RegACQ = 0x30 // admin CQ base
)

// Doorbell register layout on BAR0 (CAP.DSTRD = 0): submission queue y's
// tail doorbell at 0x1000 + 2y*4, completion queue y's head doorbell at
// 0x1000 + (2y+1)*4.
const DoorbellBase = 0x1000

// SQDoorbell returns the BAR offset of submission queue qid's tail doorbell.
func SQDoorbell(qid uint16) uint64 { return DoorbellBase + uint64(qid)*8 }

// CQDoorbell returns the BAR offset of completion queue qid's head doorbell.
func CQDoorbell(qid uint16) uint64 { return DoorbellBase + uint64(qid)*8 + 4 }

// DoorbellQueue decodes a BAR offset back into (qid, isCQ). ok is false for
// offsets outside the doorbell window.
func DoorbellQueue(off uint64) (qid uint16, isCQ bool, ok bool) {
	if off < DoorbellBase || off%4 != 0 {
		return 0, false, false
	}
	idx := (off - DoorbellBase) / 4
	return uint16(idx / 2), idx%2 == 1, true
}

// Ring describes one queue ring in memory: a base physical address and a
// fixed entry count. Head/tail indices live with the ring's owner.
type Ring struct {
	Base    uint64
	Entries uint32
	EntrySz uint32
}

// SlotAddr returns the physical address of entry idx.
func (r Ring) SlotAddr(idx uint32) uint64 {
	return r.Base + uint64(idx%r.Entries)*uint64(r.EntrySz)
}

// Next returns the index after idx with wraparound.
func (r Ring) Next(idx uint32) uint32 { return (idx + 1) % r.Entries }
