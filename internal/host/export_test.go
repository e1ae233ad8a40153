package host

import (
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// InjectCQE plays a device that posts cpl into I/O queue qIdx's completion
// ring and interrupts: the entry goes where the driver looks next, under the
// phase it expects. The real device's own tail does not move, so a test that
// injects must see to it that the device posts nothing afterwards.
func (d *Driver) InjectCQE(qIdx int, cpl nvme.Completion) {
	q := d.queues[qIdx]
	head, phase := q.Head()
	cpl.Phase = phase
	var raw [nvme.CQESize]byte
	cpl.Encode(&raw)
	d.h.Mem.Write(q.CQ().SlotAddr(head), raw[:])
	d.IRQ(int(q.ID))
}

// CQ is I/O queue qIdx's completion ring, for a test that plays a device
// writing where it likes.
func (d *Driver) CQ(qIdx int) nvme.Ring { return d.queues[qIdx].CQ() }

// QueueState is the slot bookkeeping of I/O queue qIdx: the free list in
// stack order, the zombie-flagged CIDs in ascending order, the zombie count
// kept beside the flags, and the slots out of circulation.
func (d *Driver) QueueState(qIdx int) (free, zombies []uint16, zombieCount, inUse int) {
	q := d.queues[qIdx]
	for cid, z := range q.zombie {
		if z {
			zombies = append(zombies, uint16(cid))
		}
	}
	return append([]uint16(nil), q.free...), zombies, q.zombies, q.Slots.InUse()
}

// CheckLoans reports whether this build verifies lent write payloads.
const CheckLoans = checkLoans

// SlotBuf is the address of the data buffer of I/O queue qIdx's slot.
func (d *Driver) SlotBuf(qIdx int, slot uint16) uint64 { return d.queues[qIdx].buf[slot] }

// HasWindows reports whether I/O queue qIdx has lent a payload buffer yet.
func (d *Driver) HasWindows(qIdx int) bool { return d.queues[qIdx].win != nil }

// GiveWhileLent plays a driver bug: a slot of I/O queue qIdx goes back on the
// free list with a payload buffer still lent to it.
func (d *Driver) GiveWhileLent(p *sim.Proc, qIdx int) {
	q := d.queues[qIdx]
	q.Slots.Acquire(p)
	slot := q.take()
	d.lend(q, slot, make([]byte, nvme.LBASize), false)
	q.give(slot)
}

// IO performs one read/write/flush on queue qIdx for process p and returns
// its outcome: the process API's park-once wait with the op and queue chosen
// per call.
func (d *Driver) IO(p *sim.Proc, op uint8, lba uint64, blocks uint32, buf []byte, qIdx int) IOOutcome {
	return new(Parking).IO(p, d.BlockDev(qIdx), op, lba, blocks, buf)
}
