// Package nvmei is the NVMe initiator: the host side of the queue protocol,
// written once, as internal/nvmet is the device side. Both wires of the card
// carry stock NVMe — the tenant's kernel driver towards a BMS-Engine function
// and the engine's host adaptor towards an SSD (paper §IV-C, Fig. 6) — so the
// two owners hold Queues and keep only what is theirs: CID policy, who waits
// for a completion and how, timeouts, the quiesce gate, Identify.
//
// A Queue owns one pair's SQ and CQ rings, tail, head and phase, its depth-1
// submission slots, the doorbells, and the two bring-up scripts (Enable on
// the admin pair, Create on an I/O pair). Ring memory is the owner's: it
// allocates, in its own order, and hands the addresses in. The order of the
// memory accesses and MMIO writes inside each method is part of the timing
// model (DESIGN.md §11).
package nvmei

import (
	"fmt"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// Conn is the function an owner drives and the memory its rings live in.
type Conn struct {
	Env  *sim.Env
	Mem  *hostmem.Memory // read and written at untagged local addresses
	Port *pcie.Port      // towards the device
	Fn   pcie.FuncID
	// Tag is ORed onto a ring's address where it is named to the device
	// (ASQ, ACQ, Create PRP1): what makes the device's DMA decode into Mem.
	Tag uint64
}

// Queue is the host side of one queue pair.
type Queue struct {
	ID uint16
	// Slots holds depth-1 units, one per SQE that may be outstanding: a unit
	// is taken before Push and returned when the command's CQE is reaped (or
	// the owner gives the command up).
	Slots *sim.Resource

	mem    *hostmem.Memory
	port   *pcie.Port
	fn     pcie.FuncID
	tag    uint64
	sq, cq nvme.Ring
	tail   uint32
	head   uint32
	phase  bool
}

// RingPages is the number of 4 KiB pages a ring of entries × entrySz needs.
func RingPages(entries, entrySz uint32) int {
	return int((entries*entrySz + nvme.PageSize - 1) / nvme.PageSize)
}

// NewQueue returns pair id of depth entries over rings at sqBase and cqBase.
// The connection's fields are copied in: the command path reaches its memory
// and port without a second pointer.
func (c Conn) NewQueue(id uint16, depth uint32, sqBase, cqBase uint64) *Queue {
	return &Queue{
		ID: id, Slots: sim.NewResource(c.Env, int(depth)-1),
		mem: c.Mem, port: c.Port, fn: c.Fn, tag: c.Tag,
		sq:    nvme.Ring{Base: sqBase, Entries: depth, EntrySz: nvme.SQESize},
		cq:    nvme.Ring{Base: cqBase, Entries: depth, EntrySz: nvme.CQESize},
		phase: true,
	}
}

// Tail is the SQ tail: the value the next Ring writes.
func (q *Queue) Tail() uint32 { return q.tail }

// CQ is the completion ring, and Head the index and phase at which Next
// looks for the next entry: what a test playing the device needs to know.
func (q *Queue) CQ() nvme.Ring { return q.cq }

func (q *Queue) Head() (idx uint32, phase bool) { return q.head, q.phase }

// Push encodes cmd into the SQ entry at the tail and advances the tail. The
// device learns of it at the next Ring.
func (q *Queue) Push(cmd *nvme.Command) {
	var b [nvme.SQESize]byte
	cmd.Encode(&b)
	q.mem.Write(q.sq.SlotAddr(q.tail), b[:])
	q.tail = q.sq.Next(q.tail)
}

// Ring writes the SQ tail doorbell.
func (q *Queue) Ring() {
	q.port.MMIOWrite(q.fn, nvme.SQDoorbell(q.ID), uint64(q.tail))
}

// Next reaps one completion into cpl: when the CQ entry at the head carries
// the expected phase it is consumed — head advanced, phase flipped on wrap,
// head doorbell written. False means the queue is drained, and cpl holds
// nothing to act on.
func (q *Queue) Next(cpl *nvme.Completion) bool {
	var raw [nvme.CQESize]byte
	q.mem.Read(q.cq.SlotAddr(q.head), raw[:])
	*cpl = nvme.DecodeCompletion(&raw)
	if cpl.Phase != q.phase {
		return false
	}
	q.head = q.cq.Next(q.head)
	if q.head == 0 {
		q.phase = !q.phase
	}
	q.port.MMIOWrite(q.fn, nvme.CQDoorbell(q.ID), uint64(q.head))
	return true
}

// Rewind returns the pair to its just-created state over the same rings, for
// a controller that was reset. The CQ ring is zeroed: entries from before the
// reset still carry phase 1, and Next would run past the device's tail
// consuming them.
func (q *Queue) Rewind() {
	q.tail, q.head, q.phase = 0, 0, true
	q.mem.Write(q.cq.Base, make([]byte, int(q.cq.Entries)*nvme.CQESize))
}

// Enable programs q as the controller's admin pair and sets CC.EN. The
// controller is ready one enable time later, which the owner sleeps out.
func (q *Queue) Enable() {
	size := uint64(q.sq.Entries - 1)
	q.port.MMIOWrite(q.fn, nvme.RegAQA, size<<16|size)
	q.port.MMIOWrite(q.fn, nvme.RegASQ, q.sq.Base|q.tag)
	q.port.MMIOWrite(q.fn, nvme.RegACQ, q.cq.Base|q.tag)
	q.port.MMIOWrite(q.fn, nvme.RegCC, 1)
}

// Disable clears CC.EN: the controller forgets every queue.
func (q *Queue) Disable() { q.port.MMIOWrite(q.fn, nvme.RegCC, 0) }

// Create makes I/O pair q on the controller — the completion queue, then the
// submission queue that completes into it — through admin, the owner's admin
// round trip.
func (q *Queue) Create(p *sim.Proc, admin func(*sim.Proc, nvme.Command) nvme.Completion) error {
	dw10 := (q.sq.Entries-1)<<16 | uint32(q.ID)
	cpl := admin(p, nvme.Command{Opcode: nvme.AdminCreateIOCQ, PRP1: q.cq.Base | q.tag, CDW10: dw10})
	if cpl.Status.IsError() {
		return fmt.Errorf("create CQ %d: status %#x", q.ID, uint16(cpl.Status))
	}
	cpl = admin(p, nvme.Command{Opcode: nvme.AdminCreateIOSQ, PRP1: q.sq.Base | q.tag, CDW10: dw10, CDW11: uint32(q.ID) << 16})
	if cpl.Status.IsError() {
		return fmt.Errorf("create SQ %d: status %#x", q.ID, uint16(cpl.Status))
	}
	return nil
}
