package nvmet

// Conformance tests for the target controller, driven the way a host drives
// it — SQEs and CQEs in memory, doorbells and configuration registers over a
// PCIe port — with a scripted fake owner behind it: no engine and no SSD.

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// testFn is the controller's function number: non-zero, so an interrupt
// raised for the wrong function shows.
const testFn pcie.FuncID = 5

// ioOp is the opcode the tests put in I/O commands; the fake owner executes
// anything.
const ioOp = nvme.IORead

type started struct {
	cid    uint16
	sqHead uint32
	at     sim.Time
}

type irqRec struct {
	fn  pcie.FuncID
	vec int
}

// fakeOwner executes every I/O command by waiting ioDelay(cid) and posting a
// successful completion, and every admin command after 1 µs.
type fakeOwner struct {
	r *rig

	mayFetch, mayPost bool
	stallUntil        sim.Time // FetchStall freezes fetch until this instant
	ioDelay           func(cid uint16) sim.Time
	onStart           func(cid uint16) // runs inside StartIO, before it returns

	started   []started
	execAt    []sim.Time // when each ExecAdmin began
	completed []uint16   // CIDs, in the order their completions were posted
}

func (o *fakeOwner) MayFetch() bool { return o.mayFetch }
func (o *fakeOwner) MayPost() bool  { return o.mayPost }

func (o *fakeOwner) FetchStall(uint16) sim.Time {
	if now := o.r.env.Now(); now < o.stallUntil {
		return o.stallUntil - now
	}
	return 0
}

func (o *fakeOwner) StartIO(sq *SQ, cmd nvme.Command, sqHead uint32) {
	o.started = append(o.started, started{cmd.CID, sqHead, o.r.env.Now()})
	if o.onStart != nil {
		o.onStart(cmd.CID)
	}
	delay := sim.Microsecond
	if o.ioDelay != nil {
		delay = o.ioDelay(cmd.CID)
	}
	o.r.env.Schedule(delay, func() {
		o.completed = append(o.completed, cmd.CID)
		o.r.c.PostCQE(sq.CQID, nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead)})
	})
}

func (o *fakeOwner) ExecAdmin(p *sim.Proc, sq *SQ, cmd nvme.Command, sqHead uint32) {
	o.execAt = append(o.execAt, p.Now())
	p.Sleep(sim.Microsecond)
	cpl := nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead)}
	switch cmd.Opcode {
	case nvme.AdminCreateIOCQ, nvme.AdminCreateIOSQ, nvme.AdminDeleteIOCQ, nvme.AdminDeleteIOSQ:
		cpl.Status = o.r.c.QueueAdmin(cmd)
	}
	o.r.c.PostCQE(sq.CQID, cpl)
}

// hostQ is the host's view of one queue pair, hand-written on purpose and not
// built on internal/nvmei: it is the independent reference the target is
// tested against — a second implementation of the host side would share the
// first one's misreadings of the protocol — and the tests need a host that
// can misbehave: push without ringing, ring a tail it never filled.
type hostQ struct {
	id     uint16
	sq, cq nvme.Ring
	tail   uint32 // next SQ slot to fill
	head   uint32 // next CQ slot to look at
	phase  bool   // phase tag a new CQE at head carries
}

type rig struct {
	t     testing.TB
	env   *sim.Env
	mem   *hostmem.Memory
	port  *pcie.Port
	c     *Controller
	own   *fakeOwner
	irqs  []irqRec
	irqAt []sim.Time // arrival instant of each entry of irqs
	regAt []sim.Time // arrival instant of every delivered register write
	admin *hostQ
	cid   uint16
}

// regDev is the device under the port, wired as the engine and the SSD wire
// theirs: register writes go to the controller, and so does the question of
// which ones need no delivery.
type regDev struct{ r *rig }

func (d regDev) RegWrite(fn pcie.FuncID, off, val uint64) {
	d.r.regAt = append(d.r.regAt, d.r.env.Now())
	if fn == testFn {
		d.r.c.RegWrite(off, val)
	}
}

func (d regDev) SinksReg(_ pcie.FuncID, off uint64) bool { return SinksReg(off) }

const adminDepth = 8

func newRig(t testing.TB) *rig { return newRigWith(t, nil) }

// newRigWith builds the rig with a metrics registry attached (nil for none).
func newRigWith(t testing.TB, met *obs.Registry) *rig {
	r := &rig{t: t, env: sim.NewEnv(1), mem: hostmem.New(64 << 20)}
	r.env.SetMetrics(met)
	r.own = &fakeOwner{r: r, mayFetch: true, mayPost: true}
	r.c = New(r.env, r.own, testFn, Config{
		FetchLatency: 500 * sim.Nanosecond,
		ExecProc:     "test/exec",
	})
	link := pcie.NewLink(r.env, 4, 300*sim.Nanosecond)
	r.port = pcie.Connect(r.env, link, pcie.NewRoot(r.env, r.mem),
		func(fn pcie.FuncID, vec int) {
			r.irqs = append(r.irqs, irqRec{fn, vec})
			r.irqAt = append(r.irqAt, r.env.Now())
		}, nil, regDev{r})
	r.c.Attach(r.port)
	r.admin = r.newQ(0, adminDepth)
	r.enable()
	return r
}

func (r *rig) newQ(id uint16, depth uint32) *hostQ {
	return &hostQ{
		id:    id,
		sq:    nvme.Ring{Base: r.mem.AllocPages(1), Entries: depth, EntrySz: nvme.SQESize},
		cq:    nvme.Ring{Base: r.mem.AllocPages(1), Entries: depth, EntrySz: nvme.CQESize},
		phase: true,
	}
}

// enable programs the admin queue registers and sets CC.EN, rewinding the
// host's view of the admin pair as a driver's re-init does.
func (r *rig) enable() {
	r.admin.tail, r.admin.head, r.admin.phase = 0, 0, true
	r.mem.Write(r.admin.cq.Base, make([]byte, adminDepth*nvme.CQESize))
	r.port.MMIOWrite(testFn, nvme.RegAQA, uint64(adminDepth-1)<<16|uint64(adminDepth-1))
	r.port.MMIOWrite(testFn, nvme.RegASQ, r.admin.sq.Base)
	r.port.MMIOWrite(testFn, nvme.RegACQ, r.admin.cq.Base)
	r.port.MMIOWrite(testFn, nvme.RegCC, 1)
	r.env.Run()
}

// push writes cmd into the queue's next SQ slot under a fresh CID, which it
// returns; ring makes the controller see it.
func (r *rig) push(q *hostQ, cmd nvme.Command) uint16 {
	r.cid++
	cmd.CID = r.cid
	var b [nvme.SQESize]byte
	cmd.Encode(&b)
	r.mem.Write(q.sq.SlotAddr(q.tail), b[:])
	q.tail = q.sq.Next(q.tail)
	return cmd.CID
}

func (r *rig) ring(q *hostQ) {
	r.port.MMIOWrite(testFn, nvme.SQDoorbell(q.id), uint64(q.tail))
}

// reap consumes every new CQE of q, as a driver's interrupt handler does.
func (r *rig) reap(q *hostQ) []nvme.Completion {
	var out []nvme.Completion
	for {
		var b [nvme.CQESize]byte
		r.mem.Read(q.cq.SlotAddr(q.head), b[:])
		cpl := nvme.DecodeCompletion(&b)
		if cpl.Phase != q.phase {
			return out
		}
		out = append(out, cpl)
		q.head = q.cq.Next(q.head)
		if q.head == 0 {
			q.phase = !q.phase
		}
	}
}

// adminCmd runs one admin command to completion and returns its status.
func (r *rig) adminCmd(cmd nvme.Command) nvme.Status {
	r.t.Helper()
	cid := r.push(r.admin, cmd)
	r.ring(r.admin)
	r.env.Run()
	got := r.reap(r.admin)
	if len(got) != 1 || got[0].CID != cid || got[0].SQID != 0 {
		r.t.Fatalf("admin opcode %#x (cid %d): reaped %+v, want exactly its completion", cmd.Opcode, cid, got)
	}
	return got[0].Status
}

func createCQ(q *hostQ) nvme.Command {
	return nvme.Command{Opcode: nvme.AdminCreateIOCQ, PRP1: q.cq.Base, CDW10: (q.cq.Entries-1)<<16 | uint32(q.id)}
}

func createSQ(q *hostQ, cqid uint16) nvme.Command {
	return nvme.Command{Opcode: nvme.AdminCreateIOSQ, PRP1: q.sq.Base, CDW10: (q.sq.Entries-1)<<16 | uint32(q.id), CDW11: uint32(cqid) << 16}
}

// pair creates I/O queue pair id (SQ id completing into CQ id).
func (r *rig) pair(id uint16, depth uint32) *hostQ {
	r.t.Helper()
	q := r.newQ(id, depth)
	if st := r.adminCmd(createCQ(q)); st != nvme.StatusSuccess {
		r.t.Fatalf("create CQ %d: status %#x", id, st)
	}
	if st := r.adminCmd(createSQ(q, id)); st != nvme.StatusSuccess {
		r.t.Fatalf("create SQ %d: status %#x", id, st)
	}
	r.irqs, r.irqAt = nil, nil
	return q
}

func (r *rig) startedCIDs() []uint16 {
	var out []uint16
	for _, s := range r.own.started {
		out = append(out, s.cid)
	}
	return out
}

func TestQueueAdminStatuses(t *testing.T) {
	r := newRig(t)
	q1, q2 := r.newQ(1, 4), r.newQ(2, 4)
	del := func(op uint8, qid uint16) nvme.Command { return nvme.Command{Opcode: op, CDW10: uint32(qid)} }
	tiny := createCQ(r.newQ(3, 4))
	tiny.CDW10 = 3 // one entry
	steps := []struct {
		name string
		cmd  nvme.Command
		want nvme.Status
	}{
		{"create CQ 0", createCQ(r.newQ(0, 4)), nvme.StatusInvalidQueueID},
		{"create one-entry CQ", tiny, nvme.StatusInvalidQueueID},
		{"create CQ 1", createCQ(q1), nvme.StatusSuccess},
		{"create CQ 1 over the live one", createCQ(q1), nvme.StatusInvalidQueueID},
		{"create SQ 0", createSQ(r.newQ(0, 4), 1), nvme.StatusInvalidQueueID},
		{"create SQ 1 into unknown CQ 9", createSQ(q1, 9), nvme.StatusInvalidQueueID},
		{"create SQ 1", createSQ(q1, 1), nvme.StatusSuccess},
		{"create SQ 1 over the live one", createSQ(q1, 1), nvme.StatusInvalidQueueID},
		{"create SQ 2 sharing CQ 1", createSQ(q2, 1), nvme.StatusSuccess},
		{"all-zero SQE = delete SQ 0", nvme.Command{}, nvme.StatusInvalidQueueID},
		{"delete CQ 0", del(nvme.AdminDeleteIOCQ, 0), nvme.StatusInvalidQueueID},
		{"delete unknown SQ 7", del(nvme.AdminDeleteIOSQ, 7), nvme.StatusInvalidQueueID},
		{"delete unknown CQ 7", del(nvme.AdminDeleteIOCQ, 7), nvme.StatusInvalidQueueID},
		{"delete CQ 1 with SQs 1 and 2 bound", del(nvme.AdminDeleteIOCQ, 1), nvme.StatusInvalidQueueDeletion},
		{"delete SQ 1", del(nvme.AdminDeleteIOSQ, 1), nvme.StatusSuccess},
		{"delete CQ 1 with SQ 2 bound", del(nvme.AdminDeleteIOCQ, 1), nvme.StatusInvalidQueueDeletion},
		{"delete SQ 2", del(nvme.AdminDeleteIOSQ, 2), nvme.StatusSuccess},
		{"delete CQ 1", del(nvme.AdminDeleteIOCQ, 1), nvme.StatusSuccess},
		{"delete CQ 1 again", del(nvme.AdminDeleteIOCQ, 1), nvme.StatusInvalidQueueID},
		// The queue tables are indexed by id: one past their end, and the
		// largest id the wire can carry, are queues that do not exist.
		{"delete SQ 3, one past the table", del(nvme.AdminDeleteIOSQ, 3), nvme.StatusInvalidQueueID},
		{"delete SQ 65535", del(nvme.AdminDeleteIOSQ, 65535), nvme.StatusInvalidQueueID},
		{"delete CQ 65535", del(nvme.AdminDeleteIOCQ, 65535), nvme.StatusInvalidQueueID},
		{"create SQ 1 into CQ 65535", createSQ(q1, 65535), nvme.StatusInvalidQueueID},
		{"create SQ 1 into deleted CQ 1", createSQ(q1, 1), nvme.StatusInvalidQueueID},
		{"create CQ 1 where one was deleted", createCQ(q1), nvme.StatusSuccess},
	}
	// 25 commands through an 8-deep admin pair: the admin rings wrap three
	// times on the way, and every step's completion arriving at all proves
	// the admin queue survived the step before it.
	for _, s := range steps {
		if got := r.adminCmd(s.cmd); got != s.want {
			t.Errorf("%s: status %#x, want %#x", s.name, got, s.want)
		}
	}
	for _, irq := range r.irqs {
		if irq != (irqRec{testFn, 0}) {
			t.Fatalf("admin completion interrupted %+v, want function %d vector 0", irq, testFn)
		}
	}
	if len(r.irqs) != len(steps) {
		t.Errorf("%d interrupts for %d admin completions", len(r.irqs), len(steps))
	}
}

func TestDoorbellToUnknownOrDisabledQueueIgnored(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 8)
	events := r.env.Events()
	quiet := func(what string, deliveries uint64) {
		t.Helper()
		r.env.Run()
		if len(r.own.started) != 0 || len(r.irqs) != 0 {
			t.Fatalf("%s: started %v, interrupts %v; want nothing", what, r.startedCIDs(), r.irqs)
		}
		// A posted write is one MMIO delivery event and must cause no other.
		if events += deliveries; r.env.Events() != events {
			t.Fatalf("%s: %d events, want %d (the MMIO delivery alone)", what, r.env.Events(), events)
		}
	}
	r.port.MMIOWrite(testFn, nvme.SQDoorbell(9), 3)
	quiet("SQ doorbell of a queue that does not exist", 1)
	// A CQ head doorbell is not delivered at all by a port whose device
	// answers SinksReg (next test); one that reaches the controller anyway
	// is discarded, and never mistaken for the SQ doorbell of the same id.
	r.c.RegWrite(nvme.CQDoorbell(1), 3)
	quiet("CQ head doorbell handed straight to the controller", 0)
	r.push(q, nvme.Command{Opcode: ioOp})
	r.port.MMIOWrite(testFn, nvme.RegCC, 0)
	quiet("disable", 1)
	r.ring(q)
	quiet("SQ doorbell of a disabled controller", 1)
	r.port.MMIOWrite(testFn, 0x40, 1)
	quiet("write to a register the model does not have", 1)
}

// TestQueueIDsOffTheTableAreUnknownQueues: queue ids reach the controller
// from the other side of the wire — a doorbell's offset, the CQ id an owner
// completes into — and index its tables. The largest id there is, an id one
// past the table, and the id of a deleted queue all name no queue: the
// doorbell starts nothing and the completion is dropped without a DMA or an
// interrupt, exactly as for a queue that never existed.
func TestQueueIDsOffTheTableAreUnknownQueues(t *testing.T) {
	r := newRig(t)
	q1, q2 := r.pair(1, 8), r.pair(2, 8)
	for _, op := range []uint8{nvme.AdminDeleteIOSQ, nvme.AdminDeleteIOCQ} {
		if st := r.adminCmd(nvme.Command{Opcode: op, CDW10: uint32(q2.id)}); st != nvme.StatusSuccess {
			t.Fatalf("delete opcode %#x of queue 2: status %#x", op, st)
		}
	}
	r.irqs, r.irqAt = nil, nil
	r.push(q2, nvme.Command{Opcode: ioOp})
	for _, qid := range []uint16{q2.id, 3, 65535} {
		events := r.env.Events()
		r.port.MMIOWrite(testFn, nvme.SQDoorbell(qid), 1)
		r.c.PostCQE(qid, nvme.Completion{CID: 7, SQID: qid})
		r.env.Run()
		if len(r.own.started) != 0 || len(r.irqs) != 0 || len(r.reap(q2)) != 0 {
			t.Fatalf("queue %d: started %v, interrupts %v; want nothing", qid, r.startedCIDs(), r.irqs)
		}
		if got := r.env.Events() - events; got != 1 {
			t.Fatalf("queue %d: %d events, want the doorbell's delivery alone (a posted CQE schedules its interrupt)", qid, got)
		}
	}
	// The neighbour below the deleted queue still works.
	cid := r.push(q1, nvme.Command{Opcode: ioOp})
	r.ring(q1)
	r.env.Run()
	if got := r.reap(q1); len(got) != 1 || got[0].CID != cid {
		t.Fatalf("queue 1 after the no-ops: reaped %+v, want cid %d", got, cid)
	}
}

// TestCQHeadDoorbellTakesTheLinkAndNoEvent: the controller discards a CQ
// head doorbell in every state, says so through SinksReg, and the port then
// delivers none — the reaper's write still occupies the link and counts in
// its byte counter exactly as a delivered write does, which a twin rig that
// posts an (ignored, but delivered) SQ doorbell instead shows.
func TestCQHeadDoorbellTakesTheLinkAndNoEvent(t *testing.T) {
	post := func(off uint64, n int) (events uint64, delivered int, downBytes uint64, nextDMA sim.Time) {
		r := newRigWith(t, obs.NewRegistry())
		r.pair(1, 8)
		e0, w0 := r.env.Events(), len(r.regAt)
		down := r.env.Metrics().Component("pcie/link0").Counter("down_bytes")
		b0 := down.Value()
		for i := 0; i < n; i++ {
			r.port.MMIOWrite(testFn, off, uint64(i))
		}
		downBytes = down.Value() - b0
		// What the next transfer on the same direction of the link sees: a
		// page, so that the wire and not the memory sets its time.
		nextDMA = r.port.DMARead(r.mem.AllocPages(1), nvme.PageSize, nil) - r.env.Now()
		r.env.Run()
		if len(r.own.started) != 0 || len(r.irqs) != 0 {
			t.Fatalf("offset %#x: started %v, interrupts %v; want nothing", off, r.startedCIDs(), r.irqs)
		}
		return r.env.Events() - e0, len(r.regAt) - w0, downBytes, nextDMA
	}
	_, _, _, idle := post(0, 0)
	sqEvents, sqDelivered, sqBytes, sqNext := post(nvme.SQDoorbell(9), 3)
	cqEvents, cqDelivered, cqBytes, cqNext := post(nvme.CQDoorbell(1), 3)
	if sqEvents != 3 || sqDelivered != 3 {
		t.Fatalf("three SQ doorbells: %d events, %d deliveries; want 3 and 3", sqEvents, sqDelivered)
	}
	if cqEvents != 0 || cqDelivered != 0 {
		t.Fatalf("three CQ head doorbells: %d events, %d deliveries; want none", cqEvents, cqDelivered)
	}
	if cqBytes != sqBytes || cqBytes != 3*uint64(pcie.WireBytes(4)) {
		t.Fatalf("down_bytes moved %d for CQ doorbells and %d for SQ doorbells, want %d for both", cqBytes, sqBytes, 3*pcie.WireBytes(4))
	}
	if cqNext != sqNext || cqNext <= idle {
		t.Fatalf("a page read behind the doorbells takes %d ns (CQ) and %d ns (SQ), %d ns on an idle link: a sunk write must book the link like a delivered one",
			cqNext, sqNext, idle)
	}
	for _, off := range []uint64{nvme.SQDoorbell(0), nvme.SQDoorbell(7), nvme.RegCC, nvme.RegAQA, 0x40} {
		if SinksReg(off) {
			t.Errorf("SinksReg(%#x) = true: only CQ head doorbells are discarded in every state", off)
		}
	}
}

// TestRingWrapAndPhaseFlip runs 14 commands — three and a half laps — through
// a depth-4 queue pair and checks every CQE's slot, phase tag and SQ head
// pointer, and every interrupt's function and vector.
func TestRingWrapAndPhaseFlip(t *testing.T) {
	const depth, total = 4, 14
	r := newRig(t)
	q := r.pair(3, depth)
	var cids []uint16
	for len(cids) < total {
		// A ring holds depth-1 entries; fill it, let it drain, go again.
		for n := 0; n < depth-1 && len(cids) < total; n++ {
			cids = append(cids, r.push(q, nvme.Command{Opcode: ioOp}))
		}
		// The second batch rings with the tail one lap too far: a doorbell
		// value past the ring is reduced modulo its size, never followed off
		// the ring. RunUntil, so a fetch engine that runs away ends the test
		// with a count instead of hanging it.
		val := uint64(q.tail)
		if len(cids) == 2*(depth-1) {
			val += depth
		}
		r.port.MMIOWrite(testFn, nvme.SQDoorbell(q.id), val)
		r.env.RunUntil(r.env.Now() + sim.Millisecond)
		if got := len(r.own.started); got != len(cids) {
			t.Fatalf("after ringing tail %d: %d commands fetched, want %d", val, got, len(cids))
		}
		for len(r.reap(q)) > 0 {
		}
	}
	if !slices.Equal(r.startedCIDs(), cids) {
		t.Fatalf("fetched %v, want %v", r.startedCIDs(), cids)
	}
	// The CQ is depth entries and 14 = 3*4+2 completions were posted, so the
	// ring now holds completions 12, 13 (lap 3) then 10, 11 (lap 2); laps 0
	// and 2 carry phase 1, laps 1 and 3 phase 0. Each was also seen in its
	// own lap: reap above only consumes entries whose phase matches.
	for slot, i := range []int{12, 13, 10, 11} {
		var b [nvme.CQESize]byte
		r.mem.Read(q.cq.SlotAddr(uint32(slot)), b[:])
		got := nvme.DecodeCompletion(&b)
		want := nvme.Completion{CID: cids[i], SQID: q.id, SQHead: uint16((i + 1) % depth), Phase: (i/depth)%2 == 0}
		if got != want {
			t.Errorf("CQ slot %d: %+v, want %+v (completion %d)", slot, got, want, i)
		}
	}
	if q.head != total%depth || q.phase {
		t.Errorf("host consumed up to slot %d phase %v, want slot %d phase false", q.head, q.phase, total%depth)
	}
	if len(r.irqs) != total {
		t.Fatalf("%d interrupts, want %d", len(r.irqs), total)
	}
	for _, irq := range r.irqs {
		if irq != (irqRec{testFn, int(q.id)}) {
			t.Fatalf("interrupt %+v, want function %d vector %d (the CQ id)", irq, testFn, q.id)
		}
	}
}

func TestDisableMidChainAndReenable(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 8)
	first := r.push(q, nvme.Command{Opcode: ioOp})
	r.push(q, nvme.Command{Opcode: ioOp})
	r.push(q, nvme.Command{Opcode: ioOp})
	// CC.EN is cleared while the chain is between two fetches: inside the
	// first command's dispatch.
	r.own.onStart = func(uint16) { r.c.RegWrite(nvme.RegCC, 0) }
	r.ring(q)
	r.env.Run()
	if got := r.startedCIDs(); !slices.Equal(got, []uint16{first}) {
		t.Fatalf("fetched %v after a disable inside the first dispatch, want only %d", got, first)
	}
	// The first command's completion found its CQ gone.
	if got := r.reap(q); len(got) != 0 || len(r.irqs) != 0 {
		t.Fatalf("a disabled controller posted %+v and raised %v", got, r.irqs)
	}

	// Re-initialise as a driver does: same ring memory, host indices rewound.
	r.own.onStart, r.own.started = nil, nil
	r.enable()
	q.tail = 0
	for _, cmd := range []nvme.Command{createCQ(q), createSQ(q, q.id)} {
		if st := r.adminCmd(cmd); st != nvme.StatusSuccess {
			t.Fatalf("re-create opcode %#x: status %#x (queues must not survive a disable)", cmd.Opcode, st)
		}
	}
	again := r.push(q, nvme.Command{Opcode: ioOp})
	r.ring(q)
	r.env.Run()
	if len(r.own.started) != 1 || r.own.started[0].cid != again || r.own.started[0].sqHead != 1 {
		t.Fatalf("after re-enable fetched %+v, want cid %d from slot 0 (head 1 after it)", r.own.started, again)
	}
	if got := r.reap(q); len(got) != 1 || got[0].CID != again {
		t.Fatalf("after re-enable reaped %+v, want cid %d in slot 0 with phase 1", got, again)
	}
}

// TestFetchOrderIsDoorbellOrder: fetch is strictly sequential per queue and
// in ring order however the doorbells batch the entries, while the owner's
// executions overlap and finish in any order.
func TestFetchOrderIsDoorbellOrder(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 16)
	// Later commands finish sooner: 60 µs, 50 µs, … 10 µs.
	base := r.cid
	r.own.ioDelay = func(cid uint16) sim.Time { return sim.Time(7-(cid-base)) * 10 * sim.Microsecond }
	var cids []uint16
	for i := 0; i < 3; i++ {
		cids = append(cids, r.push(q, nvme.Command{Opcode: ioOp}))
	}
	r.ring(q) // tail 3
	for i := 0; i < 3; i++ {
		cids = append(cids, r.push(q, nvme.Command{Opcode: ioOp}))
	}
	r.ring(q) // tail 6, arriving while the first batch is being fetched
	r.env.Run()

	if !slices.Equal(r.startedCIDs(), cids) {
		t.Fatalf("fetch order %v, want submission order %v", r.startedCIDs(), cids)
	}
	for i := 1; i < len(r.own.started); i++ {
		if r.own.started[i].at <= r.own.started[i-1].at {
			t.Fatalf("commands %d and %d dispatched at %d and %d: fetch is one SQE at a time",
				i-1, i, r.own.started[i-1].at, r.own.started[i].at)
		}
	}
	rev := slices.Clone(cids)
	slices.Reverse(rev)
	if !slices.Equal(r.own.completed, rev) {
		t.Fatalf("completion order %v, want %v: executions must overlap, not serialise behind the fetch", r.own.completed, rev)
	}
	var reaped []uint16
	for _, c := range r.reap(q) {
		reaped = append(reaped, c.CID)
	}
	if !slices.Equal(reaped, rev) {
		t.Fatalf("CQ holds %v, want completion order %v", reaped, rev)
	}
}

func TestMayPostFalseDropsCQEAndIRQ(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 8)
	r.own.mayPost = false
	r.push(q, nvme.Command{Opcode: ioOp})
	r.push(q, nvme.Command{Opcode: ioOp})
	r.ring(q)
	r.env.Run()
	if len(r.own.completed) != 2 {
		t.Fatalf("owner completed %v, want both commands", r.own.completed)
	}
	ringBytes := make([]byte, 8*nvme.CQESize)
	r.mem.Read(q.cq.Base, ringBytes)
	if !bytes.Equal(ringBytes, make([]byte, len(ringBytes))) {
		t.Fatal("CQE bytes landed in host memory although the owner may not post")
	}
	if len(r.irqs) != 0 {
		t.Fatalf("interrupts %v although the owner may not post", r.irqs)
	}
	// The dropped completions consumed no CQ slot.
	r.own.mayPost = true
	cid := r.push(q, nvme.Command{Opcode: ioOp})
	r.ring(q)
	r.env.Run()
	if got := r.reap(q); len(got) != 1 || got[0].CID != cid || q.head != 1 {
		t.Fatalf("reaped %+v with host head %d, want cid %d in slot 0", got, q.head, cid)
	}
}

func TestMayFetchAndStallGateFetch(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 8)
	first := r.push(q, nvme.Command{Opcode: ioOp})
	events := r.env.Events()
	r.own.mayFetch = false
	r.ring(q)
	r.env.Run()
	r.own.mayFetch = true
	r.env.Run()
	if len(r.own.started) != 0 || r.env.Events() != events+1 {
		t.Fatalf("fetched %v in %d events: a doorbell rung while the owner may not fetch is lost on arrival, not deferred",
			r.startedCIDs(), r.env.Events()-events)
	}

	// Ring again into a stall window: fetch resumes when it ends.
	r.own.stallUntil = r.env.Now() + 50*sim.Microsecond
	second := r.push(q, nvme.Command{Opcode: ioOp})
	r.ring(q)
	r.env.Run()
	if !slices.Equal(r.startedCIDs(), []uint16{first, second}) {
		t.Fatalf("fetched %v, want %v", r.startedCIDs(), []uint16{first, second})
	}
	if at := r.own.started[0].at; at < r.own.stallUntil {
		t.Fatalf("first dispatch at %d, inside the stall window ending %d", at, r.own.stallUntil)
	}

	// Liveness is re-checked when a stall ends, and mid-chain.
	r.own.started = nil
	r.own.stallUntil = r.env.Now() + 50*sim.Microsecond
	r.push(q, nvme.Command{Opcode: ioOp})
	r.ring(q)
	r.env.RunUntil(r.own.stallUntil - sim.Microsecond)
	r.own.mayFetch = false
	r.env.Run()
	if len(r.own.started) != 0 {
		t.Fatalf("fetched %v after the owner stopped fetching during a stall", r.startedCIDs())
	}
}

// TestAdminFetchRunsTheIOChain: an admin doorbell starts the fetch chain an
// I/O queue runs. The admin command's one process is its ExecAdmin; the
// fetch spawns none. Under the same stall window, the admin command and an
// I/O command on a twin rig are dispatched at the same offset from their
// doorbells, and a doorbell rung while the owner may not fetch, or a fetch
// the owner stops during a stall, leaves no trace.
func TestAdminFetchRunsTheIOChain(t *testing.T) {
	// identify is any admin opcode the fake owner does not route to
	// QueueAdmin.
	const identify = nvme.AdminIdentify
	// dispatch rings one command into queue qid with fetch stalled for stall
	// from just before the ring, and returns how long after its doorbell the
	// command was dispatched and the names of the processes spawned
	// meanwhile.
	dispatch := func(qid uint16, stall sim.Time) (sim.Time, []string) {
		r := newRig(t)
		q := r.pair(1, 8)
		r.own.execAt = nil
		op := uint8(ioOp)
		if qid == 0 {
			q, op = r.admin, identify
		}
		var dump strings.Builder
		tr := trace.New(trace.Options{Dump: &dump})
		r.env.SetTracer(tr)
		r.own.stallUntil = r.env.Now() + stall
		r.push(q, nvme.Command{Opcode: op})
		regs := len(r.regAt)
		r.ring(q)
		r.env.Run()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		var spawned []string
		for _, line := range strings.Split(dump.String(), "\n") {
			if f := strings.Fields(line); len(f) == 6 && f[1] == "sim" && f[2] == "spawn" {
				spawned = append(spawned, f[5])
			}
		}
		at := r.own.execAt
		if qid != 0 {
			at = nil
			for _, s := range r.own.started {
				at = append(at, s.at)
			}
		}
		if len(at) != 1 || len(r.regAt) != regs+1 {
			t.Fatalf("queue %d: %d dispatches after %d register writes, want one of each", qid, len(at), len(r.regAt)-regs)
		}
		if got := len(r.reap(q)); got != 1 {
			t.Fatalf("queue %d: reaped %d completions, want 1", qid, got)
		}
		return at[0] - r.regAt[regs], spawned
	}
	for _, stall := range []sim.Time{0, 50 * sim.Microsecond} {
		admin, spawned := dispatch(0, stall)
		io, ioSpawned := dispatch(1, stall)
		if !slices.Equal(spawned, []string{"test/exec"}) || len(ioSpawned) != 0 {
			t.Fatalf("stall %d: an admin command spawned %q and an I/O command %q, want only its ExecAdmin and none", stall, spawned, ioSpawned)
		}
		if admin != io {
			t.Errorf("stall %d: admin command dispatched %d ns after its doorbell, an I/O command %d ns", stall, admin, io)
		}
		if stall > 0 && admin < stall {
			t.Errorf("admin command dispatched %d ns after its doorbell, inside the %d ns stall", admin, stall)
		}
	}

	r := newRig(t)
	events := r.env.Events()
	r.own.mayFetch = false
	r.push(r.admin, nvme.Command{Opcode: identify})
	r.ring(r.admin)
	r.env.Run()
	r.own.mayFetch = true
	r.env.Run()
	if len(r.own.execAt) != 0 || r.env.Events() != events+1 {
		t.Fatalf("%d admin commands ran in %d events: a doorbell rung while the owner may not fetch is lost on arrival", len(r.own.execAt), r.env.Events()-events)
	}
	r.own.stallUntil = r.env.Now() + 50*sim.Microsecond
	r.push(r.admin, nvme.Command{Opcode: identify})
	r.ring(r.admin)
	r.env.RunUntil(r.own.stallUntil - sim.Microsecond)
	r.own.mayFetch = false
	r.env.Run()
	if len(r.own.execAt) != 0 {
		t.Fatalf("an admin command ran after the owner stopped fetching during a stall")
	}
}

// listTransfer lays out an n-byte transfer at a page-aligned buffer and
// returns its PRPs and list pages.
func listTransfer(mem *hostmem.Memory, n int) (prp1, prp2 uint64, lists []uint64) {
	buf := mem.AllocPages((n + nvme.PageSize - 1) / nvme.PageSize)
	return nvme.BuildPRPs(mem, buf, n)
}

// walkToEnd drives the retry walk as an owner's attempt step does and
// returns the result, the number of attempts and the finish time.
func (r *rig) walkToEnd(w *PRPWalk, prp1, prp2 uint64, n int) (segs []nvme.Segment, err error, attempts int, at sim.Time) {
	var attempt func()
	attempt = func() {
		attempts++
		out, pending, e := r.c.WalkPRPs(w, nil, prp1, prp2, n, attempt)
		if !pending {
			segs, err, at = out, e, r.env.Now()
		}
	}
	attempt()
	r.env.Run()
	return segs, err, attempts, at
}

// TestChainedPRPListChargedSequentially: a transfer whose PRP list chains
// over three pages costs three list-page DMA round trips back to back — what
// a blocking PRP fetch engine would pay — and its pages go back to the pool.
func TestChainedPRPListChargedSequentially(t *testing.T) {
	const perList = nvme.PageSize / 8
	n := (1 + 2*(perList-1) + 5) * nvme.PageSize // first page + two full lists + 5 entries
	r := newRig(t)
	prp1, prp2, lists := listTransfer(r.mem, n)
	if len(lists) != 3 {
		t.Fatalf("transfer uses %d list pages, want 3", len(lists))
	}
	want, err := nvme.WalkPRPsInto(nil, r.mem, prp1, prp2, n)
	if err != nil {
		t.Fatal(err)
	}

	// One idle-link round trip, measured on a twin rig's port.
	twin := newRig(t)
	if twin.env.Now() != r.env.Now() {
		t.Fatal("twin rigs disagree on the clock after bring-up")
	}
	roundTrip := twin.port.DMARead(lists[0], nvme.PageSize, nil) - twin.env.Now()

	var w PRPWalk
	t0 := r.env.Now()
	segs, err, attempts, at := r.walkToEnd(&w, prp1, prp2, n)
	if err != nil || !slices.Equal(segs, want) {
		t.Fatalf("retry walk: %d segments, err %v; want the %d of the one-shot walk", len(segs), err, len(want))
	}
	if attempts != 4 || !slices.Equal(w.fetchedPages(), lists) {
		t.Fatalf("%d attempts fetched %#x, want 4 attempts fetching %#x in chain order", attempts, w.fetchedPages(), lists)
	}
	if got := at - t0; got != 3*roundTrip {
		t.Fatalf("walk took %d ns, want 3 sequential list-page round trips of %d ns", got, roundTrip)
	}
	// Each buffer holds the entries the transfer uses of its page: two full
	// pages (511 entries and the chain pointer) and a five-entry tail.
	wantLens := []int{nvme.PageSize, nvme.PageSize, 5 * 8}
	for i, f := range w.fetched {
		if len(f.entries) != wantLens[i] {
			t.Fatalf("list page %d kept %d bytes, want %d", i, len(f.entries), wantLens[i])
		}
	}
	r.c.ReleasePRPs(&w)
	if len(r.c.listFree) != 3 || len(w.fetched) != 0 {
		t.Fatalf("after release: pool %d buffers, walk holds %d; want 3 and none", len(r.c.listFree), len(w.fetched))
	}
	// The next command's walk is served from the pool, each buffer popped at
	// the size it needs: same three backing arrays, nothing dropped for being
	// too small.
	pooled := poolArrays(r.c)
	if _, err, _, _ := r.walkToEnd(&w, prp1, prp2, n); err != nil || len(r.c.listFree) != 0 {
		t.Fatalf("second walk: err %v, pool %d buffers, want the three pooled buffers in use", err, len(r.c.listFree))
	}
	r.c.ReleasePRPs(&w)
	if got := poolArrays(r.c); !slices.Equal(got, pooled) {
		t.Fatalf("pool after the second release holds arrays %p, want the same three %p", got, pooled)
	}
	// A pooled buffer too small for the page it is popped for is replaced,
	// not sliced past its capacity: a 5-entry tail cannot serve a full page.
	r.c.listFree = r.c.listFree[:1]
	if cap(r.c.listFree[0]) != 5*8 {
		t.Fatalf("pool bottom has capacity %d, want the 5-entry tail buffer", cap(r.c.listFree[0]))
	}
	if segs, err, _, _ := r.walkToEnd(&w, prp1, prp2, n); err != nil || !slices.Equal(segs, want) {
		t.Fatalf("walk over an undersized pool: %d segments, err %v", len(segs), err)
	}
	r.c.ReleasePRPs(&w)
}

// fetchedPages lists the addresses of the list pages a walk holds, in fetch
// order.
func (w *PRPWalk) fetchedPages() []uint64 {
	var out []uint64
	for _, f := range w.fetched {
		out = append(out, f.addr)
	}
	return out
}

// poolArrays identifies the backing arrays of the pooled list buffers, in
// fetch order of the command that released them.
func poolArrays(c *Controller) []*byte {
	var out []*byte
	for i := len(c.listFree) - 1; i >= 0; i-- {
		out = append(out, &c.listFree[i][:1][0])
	}
	return out
}

// warmWalk128K returns one command's worth of PRP-list work on a 128 KiB
// transfer — the first attempt misses the list page, the fetch crosses the
// link, the retry hits, the buffer goes back to the pool — and the counters
// it keeps.
func warmWalk128K(t testing.TB, r *rig) (walk func(), attempts *int, segs *[]nvme.Segment) {
	const n = 128 << 10
	prp1, prp2, _ := listTransfer(r.mem, n)
	var (
		w       PRPWalk
		out     []nvme.Segment
		tries   int
		attempt func()
	)
	attempt = func() {
		tries++
		got, pending, err := r.c.WalkPRPs(&w, out[:0], prp1, prp2, n, attempt)
		if pending {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		out = got
	}
	return func() {
		attempt()
		r.env.Run()
		r.c.ReleasePRPs(&w)
	}, &tries, &out
}

// TestPRPWalkWarmAllocatesNothing: the first attempt of every command with a
// PRP list ends in a discarded ErrNullPRP, so the miss-then-hit walk of a
// 128 KiB transfer must not allocate once its buffer pool is warm.
func TestPRPWalkWarmAllocatesNothing(t *testing.T) {
	r := newRig(t)
	walk, attempts, segs := warmWalk128K(t, r)
	if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
		t.Errorf("miss-then-hit walk allocates %.1f times per command, want 0", allocs)
	}
	if *attempts != 2*101 || len(*segs) != (128<<10)/nvme.PageSize {
		t.Fatalf("%d attempts and %d segments over 101 walks, want one miss and one hit each", *attempts, len(*segs))
	}
	if len(r.c.listFree) != 1 || cap(r.c.listFree[0]) != 31*8 {
		t.Fatalf("pool holds %d buffers (first of %d bytes), want the one 31-entry buffer every walk used", len(r.c.listFree), cap(r.c.listFree[0]))
	}
}

// BenchmarkPRPListFetchWalk128K is the per-command PRP-list cost of a
// 128 KiB transfer on one face of the card, over a real root complex and
// host memory: miss, fetch, hit, release. 0 allocs/op (make bench-gate).
func BenchmarkPRPListFetchWalk128K(b *testing.B) {
	r := newRig(b)
	walk, attempts, _ := warmWalk128K(b, r)
	walk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
	b.StopTimer()
	if *attempts != 2*(b.N+1) {
		b.Fatalf("%d attempts over %d walks, want one miss and one hit each", *attempts, b.N+1)
	}
}

// The two tests below pin hop positions that are part of the timing model
// (DESIGN.md §11, "what stays and why"): each looks like a wasted event and
// is not, because something else queued for the same instant books the same
// direction of the link in between. Both build that coincidence and read the
// booking order off completion times.

// TestFetchStartsOneHopAfterTheDoorbell: an SQ doorbell's delivery only
// latches the queue and schedules the fetch; the SQE read is booked one
// queue hop later. An event already queued for the delivery instant
// therefore books the downstream direction first, and the SQE fetch queues
// behind it. (Running step inside the doorbell books the SQE first: the
// page read below then completes late by the SQE's wire time.)
func TestFetchStartsOneHopAfterTheDoorbell(t *testing.T) {
	// run rings one command in and, when at is not negative, queues a page
	// read on the same port for that instant right after the ring. It
	// returns the doorbell's arrival, the read's completion and the dispatch.
	run := func(at sim.Time) (doorbell, pageDone, dispatch sim.Time) {
		r := newRig(t)
		q := r.pair(1, 8)
		page := r.mem.AllocPages(1)
		r.push(q, nvme.Command{Opcode: ioOp})
		regs := len(r.regAt)
		r.ring(q)
		if at >= 0 {
			r.env.Schedule(at-r.env.Now(), func() { pageDone = r.port.DMARead(page, nvme.PageSize, nil) })
		}
		r.env.Run()
		if len(r.own.started) != 1 || len(r.regAt) != regs+1 {
			t.Fatalf("fetched %v after %d register writes, want one command and one doorbell", r.startedCIDs(), len(r.regAt)-regs)
		}
		return r.regAt[regs], pageDone, r.own.started[0].at
	}
	arrival, _, alone := run(-1)
	idle := newRig(t)
	pageTime := idle.port.DMARead(idle.mem.AllocPages(1), nvme.PageSize, nil) - idle.env.Now()

	again, pageDone, behind := run(arrival)
	if again != arrival {
		t.Fatalf("doorbell arrived at %d, then at %d on a twin rig", arrival, again)
	}
	if got := pageDone - arrival; got != pageTime {
		t.Errorf("a page read queued for the doorbell's instant took %d ns, %d ns on an idle link: the SQE fetch was booked ahead of it, at the doorbell", got, pageTime)
	}
	if behind <= alone {
		t.Errorf("dispatch at %d with the link busy, %d without: the SQE fetch did not queue behind the page read", behind, alone)
	}
}

// TestInterruptBooksTheLinkWhenTheCQELands: PostCQE books the CQE write and
// nothing else; the MSI books the upstream direction at the instant the CQE
// lands. A posted write that follows the CQE onto the link therefore goes
// out right behind it, and the interrupt behind that write. (Booking the
// MSI when the CQE is posted reserves its slot early: the write below then
// lands late by the MSI's wire time, and the interrupt overtakes it.)
func TestInterruptBooksTheLinkWhenTheCQELands(t *testing.T) {
	r := newRig(t)
	q := r.pair(1, 8)
	page := r.mem.AllocPages(1)

	// What a CQE-sized write followed at once by a page write costs on an
	// idle link, measured on a twin port.
	twin := newRig(t)
	twin.port.DMAWrite(twin.mem.AllocPages(1), nvme.CQESize, nil)
	want := twin.port.DMAWrite(twin.mem.AllocPages(1), nvme.PageSize, nil) - twin.env.Now()

	var posted, pageDone sim.Time
	r.env.Schedule(sim.Microsecond, func() {
		posted = r.env.Now()
		r.c.PostCQE(q.id, nvme.Completion{CID: 1, SQID: q.id})
	})
	// Queued for the same instant, after the post and before the interrupt.
	r.env.Schedule(sim.Microsecond, func() { pageDone = r.port.DMAWrite(page, nvme.PageSize, nil) })
	r.env.Run()
	if len(r.irqs) != 1 || len(r.reap(q)) != 1 {
		t.Fatalf("%d interrupts, want one with its CQE", len(r.irqs))
	}
	if got := pageDone - posted; got != want {
		t.Errorf("a page write posted behind the CQE landed after %d ns, want %d: something else was booked between them", got, want)
	}
	if r.irqAt[0] <= pageDone {
		t.Errorf("interrupt at %d, page write landed at %d: the MSI was booked before the CQE had landed", r.irqAt[0], pageDone)
	}
}
