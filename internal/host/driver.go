package host

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// adminDepth is the admin queue-pair depth.
const adminDepth = 32

// enableTime is how long the driver polls CSTS.RDY after setting CC.EN.
const enableTime = 20 * sim.Microsecond

// DriverConfig tunes one driver attachment.
type DriverConfig struct {
	Queues     int    // I/O queue pairs (one per submitting thread is typical)
	QueueDepth uint32 // entries per queue
	MaxIOBytes int    // largest single I/O the driver will build PRPs for
	// CreateNSBlocks, when nonzero and the device exposes no namespace,
	// makes the driver create one of this many blocks (bare-metal setup on
	// a fresh SSD; the BMS-Engine rejects it, as vendors manage namespaces
	// out of band).
	CreateNSBlocks uint64
	// VM, when non-nil, applies guest virtualisation overhead to every I/O.
	VM *VMProfile
	// CmdTimeout, when nonzero, bounds how long one I/O attempt may stay in
	// flight before the driver gives up on it: the attempt's CID is parked
	// on the zombie list (its late CQE, if any, reclaims the slot), an NVMe
	// Abort is sent, and the command is eligible for retry. Zero keeps the
	// historical wait-forever behaviour and schedules no timer events, so
	// existing rigs' traces are unchanged.
	CmdTimeout sim.Time
	// MaxRetries is how many times a timed-out or retryably-failed I/O is
	// re-issued before its status is returned to the caller. Zero fails
	// fast on the first error.
	MaxRetries int
	// RetryBackoff is the base delay before a retry; attempt n sleeps
	// RetryBackoff << n (bounded exponential backoff).
	RetryBackoff sim.Time
}

// DefaultDriverConfig covers the paper's fio setup: 4 jobs, deep queues.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{Queues: 4, QueueDepth: 1024, MaxIOBytes: 1 << 20}
}

// Driver is an instance of the kernel NVMe driver bound to one PCIe
// function.
type Driver struct {
	h    *Host
	port *pcie.Port
	fn   pcie.FuncID
	cfg  DriverConfig
	tr   *trace.Tracer

	// met and the cached instruments are nil when metrics are off; every
	// I/O then pays one nil check per observation point. The driver opens
	// a request span per non-flush I/O, keyed by (fn, qid, CID) — the same
	// identity the engine front end sees on the other side of the wire.
	// Its counters are ioc's, which the registry reads at export.
	met          *obs.Registry
	mInflight    *obs.Gauge
	mEventsPerIO *obs.Hist

	// cplFree recycles the completion carriers the IRQ handler passes to
	// waiting attempts (a plain struct in an interface would re-box per CQE).
	cplFree []*nvme.Completion

	admin  *dq
	queues []*dq

	// ioc lives apart from the Driver so that a registry outliving the rig
	// (an obs.Set keeps every rig's) holds the counts, not the rig.
	ioc *ioCounts

	nsid     uint32
	nsBlocks uint64
	ident    nvme.IdentifyController
}

// IOCounters is the driver's CID accounting over its I/O queues (the admin
// queue is excluded). At quiesce the books must balance: every submitted
// attempt either completed to a waiter or timed out, every timed-out CID is
// either reclaimed by its straggler CQE or still parked as a zombie, and no
// CQE ever arrives for a CID nobody issued. A chaos invariant checker
// asserts exactly that.
type IOCounters struct {
	Submitted  uint64 // I/O attempts rung in (including retries)
	Completed  uint64 // CQEs delivered to a waiting attempt
	Timeouts   uint64 // attempts abandoned after CmdTimeout
	Aborts     uint64 // NVMe Aborts raised for timed-out CIDs (sent if an admin slot was to be had)
	Retries    uint64 // re-submissions after a retryable failure
	Stragglers uint64 // late CQEs that reclaimed a zombied CID
	Spurious   uint64 // CQEs matching neither a waiter nor a zombie
	// Reclaimed counts zombied CIDs recycled by ReclaimZombies rather than
	// by a straggler CQE — after a controller crash the straggler never
	// comes, so the re-attach path forcibly returns the slots. Every
	// timeout therefore ends as either a Straggler or a Reclaimed.
	Reclaimed uint64
	// SlotTimeouts counts attempts that got no SQ slot within CmdTimeout.
	// They were never sent: no CID, and no part in Submitted, Timeouts or
	// Aborts.
	SlotTimeouts uint64
	// ZombiesLeft is the number of CIDs still parked on zombie lists —
	// timed-out attempts whose straggler CQE never arrived.
	ZombiesLeft int
}

// ioCounts is everything the driver counts: the CID accounting and the
// block layer's splits.
type ioCounts struct {
	IOCounters
	splits uint64 // I/Os split at Kernel.SplitBytes
}

// Counters snapshots the driver's I/O CID accounting.
func (d *Driver) Counters() IOCounters {
	c := d.ioc.IOCounters
	for _, q := range d.queues {
		c.ZombiesLeft += q.zombies
	}
	return c
}

// IOOutcome describes how one driver-level I/O episode ended, across all
// its retry attempts.
type IOOutcome struct {
	Status   nvme.Status
	Attempts int // submission attempts made (1 = no retries)
	// TimedOut reports that the episode ended without a completion in hand
	// after an attempt that was sent had been abandoned on timeout, so the
	// command's effect is indeterminate — a write may or may not have reached
	// the media, and may still land later (the CID is zombied until its
	// straggler CQE arrives). An episode none of whose attempts got an SQ slot
	// ends aborted but not in doubt: nothing was sent.
	TimedOut bool
}

// Err is the episode's status as the error ReadAt and WriteAt return: nil on
// success.
func (oc IOOutcome) Err() error {
	if oc.Status.IsError() {
		return fmt.Errorf("nvme: status %#x", uint16(oc.Status))
	}
	return nil
}

// dq is one driver-side queue pair: the shared initiator's rings and slot
// count, plus the driver's CID policy — a slot's index is its command's CID,
// handed out last-freed-first.
type dq struct {
	*nvmei.Queue
	free []uint16 // free slot indices (used as CIDs)
	// wait is the per-slot event of the attempt in flight under that CID, nil
	// when nothing waits. A CID read from a CQE is checked against its length
	// before it indexes anything here.
	wait []*sim.Event
	// span is the per-slot span handle of the I/O in flight under that CID
	// (nil for a flush), kept for the IRQ handler's CQE mark. Only an I/O
	// queue of a driver with a metrics registry has the array.
	span []*obs.Span
	// zombie flags the CIDs abandoned by a command timeout (zombies counts
	// them): the slot stays out of circulation (the device may still DMA into
	// its buffer) until the straggler CQE arrives and the IRQ handler
	// reclaims it.
	zombie  []bool
	zombies int
	buf     []uint64 // per-slot data buffer base
	prpPg   []uint64 // per-slot PRP list page
	// win lends a caller's payload buffer to its slot's data buffer range for
	// one attempt (lend, unlend). Made on the queue's first payload, so a queue
	// that only ever moves dataless I/O allocates nothing for it.
	win *hostmem.Windows
	// sum is the checksum each lent write payload had when it was lent; only a
	// race-detector build (checkLoans) keeps it.
	sum []uint32
	// prpLen caches the page count whose entries currently fill each slot's
	// PRP list. Slot buffers never move, so a repeat of the same transfer
	// size finds the identical list bytes already in place and skips the
	// rewrite entirely.
	prpLen []int
}

// AttachDriver initialises the NVMe controller behind port/fn and returns
// a ready driver. Must run in process context (admin round trips).
func AttachDriver(p *sim.Proc, h *Host, port *pcie.Port, fn pcie.FuncID, cfg DriverConfig) (*Driver, error) {
	if cfg.Queues <= 0 || cfg.QueueDepth < 2 {
		return nil, fmt.Errorf("host: bad driver config %+v", cfg)
	}
	if cfg.MaxIOBytes <= 0 {
		cfg.MaxIOBytes = 1 << 20
	}
	d := &Driver{h: h, port: port, fn: fn, cfg: cfg, tr: h.Env.Tracer(), ioc: new(ioCounts)}
	if met := h.Env.Metrics(); met != nil {
		d.met = met
		comp := met.Instance("host/driver")
		d.mInflight = comp.Gauge("inflight")
		ioc := d.ioc
		comp.CounterOf("doorbells", func() uint64 { return ioc.Submitted })
		comp.CounterOf("cqes", func() uint64 { return ioc.Completed + ioc.Stragglers + ioc.Spurious })
		comp.CounterOf("block_splits", func() uint64 { return ioc.splits })
		comp.CounterOf("timeouts", func() uint64 { return ioc.Timeouts })
		comp.CounterOf("aborts", func() uint64 { return ioc.Aborts })
		comp.CounterOf("retries", func() uint64 { return ioc.Retries })
		d.mEventsPerIO = comp.Hist("events_per_io")
	}
	h.register(d)

	// Admin queue pair.
	d.admin = d.newQueue(0, adminDepth, 4096)
	d.admin.Enable()
	p.Sleep(enableTime)

	// Identify controller.
	page := h.Mem.AllocPages(1)
	cpl := d.AdminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify, PRP1: page, CDW10: nvme.CNSController})
	if cpl.Status.IsError() {
		return nil, fmt.Errorf("host: identify controller failed: %#x", cpl.Status)
	}
	buf := make([]byte, nvme.IdentifyPageSize)
	h.Mem.Read(page, buf)
	d.ident = nvme.DecodeIdentifyController(buf)

	// Namespace discovery (and optional creation on bare SSDs).
	cpl = d.AdminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify, PRP1: page, CDW10: nvme.CNSActiveNSList})
	if cpl.Status.IsError() {
		return nil, fmt.Errorf("host: identify ns list failed: %#x", cpl.Status)
	}
	h.Mem.Read(page, buf)
	d.nsid = binary.LittleEndian.Uint32(buf)
	if d.nsid == 0 {
		if cfg.CreateNSBlocks == 0 {
			return nil, fmt.Errorf("host: device exposes no namespace")
		}
		h.Mem.WriteU64(page, cfg.CreateNSBlocks)
		cpl = d.AdminCmd(p, nvme.Command{Opcode: nvme.AdminNSManagement, PRP1: page})
		if cpl.Status.IsError() {
			return nil, fmt.Errorf("host: namespace create failed: %#x", cpl.Status)
		}
		d.nsid = cpl.DW0
	}
	cpl = d.AdminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify, NSID: d.nsid, PRP1: page, CDW10: nvme.CNSNamespace})
	if cpl.Status.IsError() {
		return nil, fmt.Errorf("host: identify namespace failed: %#x", cpl.Status)
	}
	h.Mem.Read(page, buf)
	d.nsBlocks = nvme.DecodeIdentifyNamespace(buf).NSZE

	// I/O queue pairs.
	for i := 0; i < cfg.Queues; i++ {
		qid := uint16(i + 1)
		q := d.newQueue(qid, cfg.QueueDepth, cfg.MaxIOBytes)
		if err := q.Create(p, d.AdminCmd); err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
		d.queues = append(d.queues, q)
	}
	return d, nil
}

// newQueue allocates rings and per-slot buffers in host memory.
func (d *Driver) newQueue(qid uint16, depth uint32, maxIO int) *dq {
	mem := d.h.Mem
	sqb := mem.AllocPages(nvmei.RingPages(depth, nvme.SQESize))
	cqb := mem.AllocPages(nvmei.RingPages(depth, nvme.CQESize))
	conn := nvmei.Conn{Env: d.h.Env, Mem: mem, Port: d.port, Fn: d.fn}
	q := &dq{Queue: conn.NewQueue(qid, depth, sqb, cqb)}
	nSlots := int(depth) - 1
	q.wait = make([]*sim.Event, nSlots)
	if d.met != nil && qid != 0 {
		q.span = make([]*obs.Span, nSlots)
	}
	q.zombie = make([]bool, nSlots)
	for s := 0; s < nSlots; s++ {
		q.free = append(q.free, uint16(s))
		q.buf = append(q.buf, mem.AllocPages(maxIO/4096))
		q.prpPg = append(q.prpPg, mem.AllocPages(1))
		q.prpLen = append(q.prpLen, 0)
	}
	return q
}

// waitEvent returns the event one submission's CQE fires. Without a command
// timeout the event fires exactly once and is never abandoned, so it can
// come from the kernel's recycled pool; the timeout path abandons loser
// events (their straggler CQE finds the zombie list, not the event), which
// a pooled event's single-fire contract does not allow.
func (d *Driver) waitEvent() *sim.Event {
	if d.cfg.CmdTimeout == 0 {
		return d.h.Env.PooledEvent()
	}
	return d.h.Env.NewEvent()
}

func (d *Driver) getCpl(c nvme.Completion) *nvme.Completion {
	if n := len(d.cplFree); n > 0 {
		p := d.cplFree[n-1]
		d.cplFree = d.cplFree[:n-1]
		*p = c
		return p
	}
	p := new(nvme.Completion)
	*p = c
	return p
}

func (d *Driver) putCpl(c *nvme.Completion) nvme.Completion {
	v := *c
	d.cplFree = append(d.cplFree, c)
	return v
}

// Identity returns the controller identify data the driver read at attach.
func (d *Driver) Identity() nvme.IdentifyController { return d.ident }

// NamespaceBlocks returns the active namespace's size in 4K blocks.
func (d *Driver) NamespaceBlocks() uint64 { return d.nsBlocks }

// IRQ handles one MSI vector for this driver: it reaps the corresponding
// completion queue.
func (d *Driver) IRQ(vec int) {
	h := d.h
	var q *dq
	if vec == 0 {
		q = d.admin
	} else if vec-1 < len(d.queues) {
		q = d.queues[vec-1]
	}
	if q == nil {
		return
	}
	var cpl nvme.Completion
	for q.Next(&cpl) {
		d.tr.Emit(h.Env.Now(), "host", "cqe",
			uint64(d.fn)<<32|uint64(vec)<<16|uint64(cpl.CID), uint64(cpl.Status), "")
		// The CID is the device's word: one outside the queue's slots can be
		// neither waited for nor zombied, and has no span.
		var ev *sim.Event
		known := int(cpl.CID) < len(q.wait)
		if known {
			ev = q.wait[cpl.CID]
		}
		if known && d.met != nil && q.ID != 0 {
			// Admin completions (q 0) carry no span; a flush's slot holds a
			// nil handle and the mark is a no-op.
			q.span[cpl.CID].Mark(timeline.PtCQE, h.Env.Now())
		}
		if ev != nil {
			q.wait[cpl.CID] = nil
			if q.ID != 0 {
				d.ioc.Completed++
			}
			// An I/O attempt's first act on its CQE is to wait out the
			// completion cost (ioReq.onCQE), so its callback can run right
			// here and is back in the event queue before the next CQE is
			// read: no entry just to wake it. An admin waiter carries
			// straight on, and so would an I/O attempt under a zero-cost
			// kernel profile; those queue, rather than run on inside this
			// handler.
			if q.ID != 0 && d.completeLatency() > 0 {
				ev.Fire(d.getCpl(cpl))
			} else {
				ev.Trigger(d.getCpl(cpl))
			}
		} else if known && q.zombie[cpl.CID] {
			// Straggler completion for a timed-out command: nobody is
			// waiting anymore, but the slot can go back into circulation.
			if q.ID != 0 {
				d.ioc.Stragglers++
			}
			q.unzombie(cpl.CID)
		} else if q.ID != 0 {
			// A CQE for a CID nobody issued or already reaped: duplicate or
			// fabricated completion. Nothing to deliver — just book it so
			// the invariant checker can flag it.
			d.ioc.Spurious++
		}
	}
}

// ReclaimZombies forcibly recycles every zombied CID on every queue and
// returns how many it freed. Zombies normally wait for their straggler CQE,
// but a crashed controller posts no completions ever again — after the
// engine has been declared dead (and certainly after a re-attach reset the
// rings), the parked slots are dead capital. Admin zombies (from aborts
// whose own completion timed out) are reclaimed too; only I/O-queue slots
// count toward IOCounters.Reclaimed, matching the counter's admin-excluded
// contract.
func (d *Driver) ReclaimZombies() int {
	n := d.reclaimQueue(d.admin)
	for _, q := range d.queues {
		n += d.reclaimQueue(q)
	}
	if n > 0 {
		d.tr.Emit(d.h.Env.Now(), "host", "reclaim", uint64(d.fn), uint64(n), "")
	}
	return n
}

// reclaimQueue recycles one queue's zombied CIDs in CID order.
func (d *Driver) reclaimQueue(q *dq) int {
	n := q.zombies
	for cid := 0; q.zombies > 0; cid++ {
		if !q.zombie[cid] {
			continue
		}
		q.unzombie(uint16(cid))
		if q.ID != 0 {
			d.ioc.Reclaimed++
		}
	}
	return n
}

// zombify parks the CID of an attempt that timed out.
func (q *dq) zombify(cid uint16) {
	q.wait[cid] = nil
	q.zombie[cid] = true
	q.zombies++
}

// unzombie puts a zombied CID's slot back into circulation.
func (q *dq) unzombie(cid uint16) {
	q.zombie[cid] = false
	q.zombies--
	q.give(cid)
}

// take pops the most recently freed slot for a caller holding a unit of Slots.
func (q *dq) take() uint16 {
	slot := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	return slot
}

// give puts a slot back into circulation. The next command to take it must
// find its data buffer range its own: a slot still on loan is a driver bug.
func (q *dq) give(slot uint16) {
	if q.win != nil && q.win.Lent(int(slot)) {
		panic(fmt.Sprintf("host: queue %d slot %d freed with a payload buffer still lent to it", q.ID, slot))
	}
	q.free = append(q.free, slot)
	q.Slots.Release()
}

// lend makes buf the memory behind slot's data buffer for one attempt: until
// unlend, the device's DMA to the slot's PRPs reads or writes buf itself. The
// submitter does not have buf back before its I/O ends, so the payload is
// copied once, by the DMA, and nobody owns it twice. What is left to go wrong
// is other code changing a write payload while it is lent; a race-detector
// build checks for that.
func (d *Driver) lend(q *dq, slot uint16, buf []byte, write bool) {
	if q.win == nil {
		// newQueue laid the slots out back to back, each a data buffer and
		// then its PRP list page.
		stride := q.prpPg[0] + hostmem.PageSize - q.buf[0]
		q.win = d.h.Mem.NewWindows(q.buf[0], stride, len(q.buf))
		if checkLoans {
			q.sum = make([]uint32, len(q.buf))
		}
	}
	q.win.Lend(int(slot), buf)
	if checkLoans && write {
		q.sum[slot] = crc32.ChecksumIEEE(buf)
	}
}

// unlend takes the payload buffer back; slot's data buffer is pages again.
func (q *dq) unlend(slot uint16, write bool) {
	buf := q.win.Reclaim(int(slot))
	if checkLoans && write && crc32.ChecksumIEEE(buf) != q.sum[slot] {
		panic(fmt.Sprintf("host: the write payload lent to queue %d slot %d changed while the command was in flight", q.ID, slot))
	}
}

// Reattach re-initialises a controller that came back from a crash: the
// device reset wiped its queue state, so the driver rebuilds the admin
// queue registers and recreates every I/O queue pair over the same host
// memory. Ring indices are reset in place — the rings themselves (and the
// per-slot DMA buffers) are reused, which is why recovery must NOT
// transparently resume old submissions: the device could re-DMA from
// buffers the kernel has since handed to new I/Os. Instead, in-flight
// commands from before the crash ride the normal timeout/retry machinery
// and re-enter through fresh submissions.
//
// I/O zombie reclamation runs LAST: releasing those slots any earlier
// would let parked retries submit mid-bring-up into I/O queues the
// controller does not know about yet, and those doorbells would be lost.
// Admin zombies are the opposite case — they are reclaimed FIRST, because
// the bring-up's own admin commands need slots, and an aborter woken by the
// release cannot submit before CC=1: the recovery process writes every
// bring-up register without yielding in between.
func (d *Driver) Reattach(p *sim.Proc) error {
	d.admin.Rewind()
	for _, q := range d.queues {
		q.Rewind()
	}
	d.reclaimQueue(d.admin)

	d.admin.Disable()
	d.admin.Enable()
	p.Sleep(enableTime)

	page := d.h.Mem.AllocPages(1)
	cpl := d.AdminCmd(p, nvme.Command{Opcode: nvme.AdminIdentify, PRP1: page, CDW10: nvme.CNSController})
	if cpl.Status.IsError() {
		return fmt.Errorf("host: reattach identify failed: %#x", cpl.Status)
	}
	for _, q := range d.queues {
		if err := q.Create(p, d.AdminCmd); err != nil {
			return fmt.Errorf("host: reattach: %w", err)
		}
	}
	d.tr.Emit(d.h.Env.Now(), "host", "reattach", uint64(d.fn), 0, "")
	for _, q := range d.queues {
		d.reclaimQueue(q)
	}
	return nil
}

// AdminCmd submits one admin command and waits for its completion.
func (d *Driver) AdminCmd(p *sim.Proc, cmd nvme.Command) nvme.Completion {
	q := d.admin
	q.Slots.Acquire(p)
	cmd.CID = q.take()
	q.Push(&cmd)
	ev := d.h.Env.PooledEvent()
	q.wait[cmd.CID] = ev
	q.Ring()
	cpl := d.putCpl(p.Wait(ev).(*nvme.Completion))
	q.give(cmd.CID)
	return cpl
}

// ioReq is one I/O episode in flight: what Submit was asked for and where its
// current attempt stands. An attempt is a chain of callbacks — submission
// cost, SQ slot, SQE and doorbell, CQE, completion cost — that runs at the
// queue positions a process blocked in the driver would resume at. Only a
// timeout, a missing slot or a retryable status hands the episode to a
// recovery process (retry), and an old kernel's split to a process that fans
// it out (splitIO). The host recycles spent records, whose data-path
// callbacks are bound once, when a record is made, so a steady stream of
// episodes allocates nothing.
type ioReq struct {
	d      *Driver
	op     uint8
	lba    uint64
	blocks uint32
	buf    []byte
	qIdx   int
	done   func(IOOutcome)
	ev0    uint64 // kernel events fired before the episode (events_per_io)
	spanT0 int64  // kernel entry: every attempt's span starts here

	// The attempt in flight.
	q       *dq
	slot    uint16
	slotT0  sim.Time
	lent    bool
	span    *obs.Span
	spanKey uint64
	cqe     *sim.Event // what the IRQ handler fires for this attempt's CID
	timer   *sim.Event // the CmdTimeout timer, nil without one
	cpl     nvme.Completion

	// How the last attempt ended, for the recovery process; wake is that
	// process's wait for the attempt, nil while none waits.
	st   nvme.Status
	end  attemptEnd
	wake *sim.Event

	submitted func()
	slotted   func(any)
	reaped    func(any)
	completed func()
	// The CmdTimeout path's two, nil until a record first runs it.
	slotWait func(bool)
	expired  func(any)
}

// newReq takes a spent episode record from the host's free list, which all
// its drivers share, or makes one.
func (d *Driver) newReq() *ioReq {
	h := d.h
	if n := len(h.reqFree); n > 0 {
		r := h.reqFree[n-1]
		h.reqFree = h.reqFree[:n-1]
		r.d = d
		return r
	}
	r := &ioReq{d: d}
	r.submitted, r.slotted, r.reaped, r.completed = r.onSubmitted, r.onSlot, r.onCQE, r.onCompleted
	return r
}

// submit starts one I/O episode on queue qIdx; done gets its outcome. buf,
// when non-nil, is exactly the transfer's length and is lent to the slot's
// DMA buffer for each attempt (real data through the full path, copied by the
// device's DMA and by nothing else), so it must not change until done runs;
// after a read that failed or timed out its contents are unspecified. nil
// keeps the transfer dataless.
func (d *Driver) submit(op uint8, lba uint64, blocks uint32, buf []byte, qIdx int, done func(IOOutcome)) {
	nBytes := int(blocks) * nvme.LBASize
	if op != nvme.IOFlush && nBytes > d.cfg.MaxIOBytes {
		panic(fmt.Sprintf("host: %d-byte I/O exceeds driver max %d", nBytes, d.cfg.MaxIOBytes))
	}
	// A shorter buffer would persist what an earlier command left in the slot;
	// a longer one would spill past the transfer.
	if op != nvme.IOFlush && buf != nil && len(buf) != nBytes {
		panic(fmt.Sprintf("host: %d-byte buffer for a %d-byte I/O", len(buf), nBytes))
	}
	r := d.newReq()
	r.op, r.lba, r.blocks, r.buf, r.qIdx, r.done = op, lba, blocks, buf, qIdx, done
	if d.mEventsPerIO != nil {
		r.ev0 = d.h.Env.Events()
	}
	// Block-layer split on old kernels.
	if sp := d.h.Kernel.SplitBytes; sp > 0 && op != nvme.IOFlush && nBytes > sp {
		d.ioc.splits++
		d.h.Env.Start("host/split-io", r.onSplit)
		return
	}
	// Span start: the timestamp is taken here (kernel entry), the key once
	// the queue slot — and with it the CID — is known. Retried attempts
	// reuse the same t0 so a recovered I/O's span covers the whole episode.
	r.spanT0 = 0
	if d.met != nil && op != nvme.IOFlush {
		r.spanT0 = d.h.Env.Now()
	}
	r.attempt()
}

// finish ends the episode: the record goes back to the driver before done
// runs, so done may submit the next I/O on it.
func (r *ioReq) finish(oc IOOutcome) {
	d, done := r.d, r.done
	if d.mEventsPerIO != nil {
		// Kernel events fired while this episode was in flight: at queue
		// depth 1 this is the I/O's own event chain; at higher depths it
		// counts the shared window, which is the fleet-level cost that
		// matters for fusion.
		d.mEventsPerIO.Record(int64(d.h.Env.Events() - r.ev0))
	}
	r.buf, r.done, r.q, r.span, r.cqe = nil, nil, nil, nil, nil
	d.h.reqFree = append(d.h.reqFree, r)
	done(oc)
}

// attemptEnd is how one submission attempt ended.
type attemptEnd uint8

const (
	completed attemptEnd = iota // a CQE came back: the status is the device's
	timedOut                    // sent, no CQE within CmdTimeout: effect in doubt
	noSlot                      // no SQ slot within CmdTimeout: never sent
)

// attempt runs one submission attempt: queue slot, SQE, doorbell, CQE. It
// ends in ended. CmdTimeout bounds the wait for a slot as it bounds the wait
// for the CQE — a dead device's zombies can hold every slot for good — and an
// attempt that gets none was never on the wire: no CID, no zombie, no Abort.
// On a CQE timeout the CID is zombied — its slot stays reserved until the
// straggler CQE shows up — and the recovery process issues a best-effort NVMe
// Abort so the device can drop the command.
func (r *ioReq) attempt() {
	d := r.d
	// In-path submission cost.
	sub := d.h.Kernel.SubmitLatency
	if d.cfg.VM != nil {
		sub += d.cfg.VM.ExtraSubmit
	}
	d.h.Env.After(sub, r.submitted)
}

func (r *ioReq) onSubmitted() {
	d := r.d
	r.q = d.queues[r.qIdx%len(d.queues)]
	r.slotT0 = d.h.Env.Now()
	if d.cfg.CmdTimeout == 0 {
		r.q.Slots.AcquireCB(r.slotted)
		return
	}
	if r.slotWait == nil { // bound on a record's first timed attempt
		r.slotWait, r.expired = r.onSlotWait, r.onTimeout
	}
	r.q.Slots.AcquireTimeoutCB(d.cfg.CmdTimeout, r.slotWait)
}

func (r *ioReq) onSlotWait(ok bool) {
	if !ok {
		r.d.ioc.SlotTimeouts++
		r.ended(nvme.StatusSuccess, noSlot)
		return
	}
	r.onSlot(nil)
}

// onSlot sends the command on the slot just granted.
func (r *ioReq) onSlot(any) {
	d, q, op := r.d, r.q, r.op
	slotWait := int64(d.h.Env.Now() - r.slotT0)
	slot := q.take()
	r.slot = slot
	d.ioc.Submitted++

	cmd := nvme.Command{Opcode: op, NSID: d.nsid, CID: slot}
	write := op == nvme.IOWrite
	r.lent = r.buf != nil && (write || op == nvme.IORead)
	if op != nvme.IOFlush {
		cmd.SetSLBA(r.lba)
		cmd.SetNLB(r.blocks)
		cmd.PRP1, cmd.PRP2 = d.buildPRPs(q, slot, int(r.blocks)*nvme.LBASize)
		if r.lent {
			d.lend(q, slot, r.buf, write)
		}
	}
	q.Push(&cmd)
	ev := d.waitEvent()
	ev.AddCallback(r.reaped)
	r.cqe = ev
	q.wait[cmd.CID] = ev
	d.tr.Emit(d.h.Env.Now(), "host", "doorbell",
		uint64(d.fn)<<32|uint64(q.ID)<<16|uint64(op), uint64(q.Tail()), "")
	// The span is found once, here; the handle serves this attempt and, from
	// the slot's entry, the IRQ handler's CQE mark. It stays nil for a flush.
	r.span = nil
	if d.met != nil {
		if op != nvme.IOFlush {
			r.spanKey = obs.SpanKey(uint8(d.fn), q.ID, cmd.CID)
			spanOp := obs.OpRead
			if write {
				spanOp = obs.OpWrite
			}
			now := d.h.Env.Now()
			r.span = d.met.SpanStart(r.spanKey, spanOp, r.spanT0)
			r.span.Mark(timeline.PtDoorbell, now)
			// Queue depth as seen at this doorbell (before counting
			// ourselves), plus the time this attempt waited for an SQ slot.
			r.span.QD(d.mInflight.Value())
			r.span.Wait(timeline.WaitHostQ, slotWait)
			d.mInflight.Inc(now)
		}
		q.span[cmd.CID] = r.span
	}
	q.Ring()
	if d.cfg.CmdTimeout > 0 {
		r.timer = d.h.Env.Timeout(d.cfg.CmdTimeout, nil)
		r.timer.AddCallback(r.expired)
	}
}

// onCQE takes the attempt's completion from the IRQ handler, which runs it
// in place on the strength of its first act: waiting out the completion cost.
func (r *ioReq) onCQE(val any) {
	d := r.d
	if r.timer != nil {
		r.timer.Abort()
		r.timer = nil
	}
	r.cpl = d.putCpl(val.(*nvme.Completion))
	d.h.Env.After(d.completeLatency(), r.completed)
}

func (r *ioReq) onCompleted() {
	d, q := r.d, r.q
	if r.lent {
		q.unlend(r.slot, r.op == nvme.IOWrite)
	}
	if d.met != nil && r.op != nvme.IOFlush {
		now := d.h.Env.Now()
		if r.cpl.Status.IsError() {
			r.span.Error()
		}
		d.met.SpanFinish(r.spanKey, now)
		d.mInflight.Dec(now)
	}
	q.give(r.slot)
	r.ended(r.cpl.Status, completed)
}

// onTimeout gives up on the attempt's CQE.
func (r *ioReq) onTimeout(any) {
	d, q, slot := r.d, r.q, r.slot
	r.timer = nil
	// A CQE the IRQ handler queued in this same instant is too late now.
	r.cqe.Abort()
	// The caller gets buf back now, but the device may still act on the
	// command: from here a straggler read lands in the slot's own pages,
	// and a straggler fetch of a write finds the payload there.
	if r.lent {
		write := r.op == nvme.IOWrite
		q.unlend(slot, write)
		if write {
			d.h.Mem.Write(q.buf[slot], r.buf)
		}
	}
	q.zombify(slot)
	d.ioc.Timeouts++
	d.tr.Emit(d.h.Env.Now(), "host", "timeout",
		uint64(d.fn)<<32|uint64(q.ID)<<16|uint64(slot), uint64(r.op), "")
	if d.met != nil && r.op != nvme.IOFlush {
		r.span.Error()
		d.met.SpanFinish(r.spanKey, d.h.Env.Now())
		d.mInflight.Dec(d.h.Env.Now())
	}
	r.ended(nvme.StatusSuccess, timedOut)
}

// ended takes an attempt's end. A recovery process waiting for it resumes in
// place; otherwise an episode its first attempt decides ends here, and one
// that owes an Abort or a re-issue starts the recovery in place.
func (r *ioReq) ended(st nvme.Status, end attemptEnd) {
	r.st, r.end = st, end
	if ev := r.wake; ev != nil {
		r.wake = nil
		ev.Fire(nil)
		return
	}
	if end != timedOut { // a timed-out attempt owes an Abort first
		if oc, over := r.d.verdict(0, st, end, false); over {
			r.finish(oc)
			return
		}
	}
	r.d.h.Env.Start("host/recovery", r.onRecover)
}

func (r *ioReq) onRecover(p *sim.Proc) { r.finish(r.d.retry(p, r)) }

func (r *ioReq) onSplit(p *sim.Proc) {
	r.finish(r.d.splitIO(p, r.op, r.lba, r.blocks, r.buf, r.qIdx, r.d.h.Kernel.SplitBytes))
}

// retry is an episode's recovery, from the end of its first attempt: the
// Abort a timed-out attempt owes, then re-issues with bounded exponential
// backoff while the failure is retryable and retries are left, each attempt
// the same callback chain, which this process waits for.
func (d *Driver) retry(p *sim.Proc, r *ioReq) IOOutcome {
	inDoubt := false
	for attempt := 0; ; attempt++ {
		st, end := r.st, r.end
		if end == timedOut {
			d.abort(p, r.q.ID, r.slot)
		}
		inDoubt = inDoubt || end == timedOut
		if oc, over := d.verdict(attempt, st, end, inDoubt); over {
			return oc
		}
		d.ioc.Retries++
		d.tr.Emit(d.h.Env.Now(), "host", "retry",
			uint64(d.fn)<<32|uint64(r.op)<<16|uint64(attempt), uint64(st), "")
		if d.cfg.RetryBackoff > 0 {
			p.Sleep(d.cfg.RetryBackoff << uint(attempt))
		}
		// An attempt never ends inside attempt(): it waits at least for a
		// CQE or a timer.
		wake := d.h.Env.PooledEvent()
		r.wake = wake
		r.attempt()
		p.Wait(wake)
	}
}

// verdict decides an episode after its attempt'th attempt (from 0) ended
// with (st, end): the outcome and true when the episode is over, false when
// it is retried. inDoubt says whether some attempt so far timed out.
func (d *Driver) verdict(attempt int, st nvme.Status, end attemptEnd, inDoubt bool) (IOOutcome, bool) {
	if end == completed && !st.IsError() {
		return IOOutcome{Status: st, Attempts: attempt + 1}, true
	}
	if retryable := end != completed || st.Retryable(); retryable && attempt < d.cfg.MaxRetries {
		return IOOutcome{}, false
	}
	if end != completed {
		// Retries exhausted with no completion in hand: report the command
		// aborted. Its effect is in doubt only if some attempt reached the
		// device; one that got no slot was never sent.
		return IOOutcome{Status: nvme.StatusAborted, Attempts: attempt + 1, TimedOut: inDoubt}, true
	}
	return IOOutcome{Status: st, Attempts: attempt + 1}, true
}

// completeLatency is the in-path completion cost of one I/O: MSI to the
// submitter's wake-up, plus interrupt injection when the driver runs in a
// guest.
func (d *Driver) completeLatency() sim.Time {
	comp := d.h.Kernel.CompleteLatency
	if d.cfg.VM != nil {
		comp += d.cfg.VM.ExtraComplete
	}
	return comp
}

// abort issues an NVMe Abort for (sqid, cid) after a command timeout. It is
// best-effort: the BMS-Engine and the SSD model both complete Abort with
// success without touching the target command, which matches how loosely
// real controllers honour it. Both waits — for an admin slot, then for the
// completion — are bounded by the same CmdTimeout: with no slot the Abort is
// not sent, and if the device is too dead to complete it the admin slot joins
// the zombie list too.
func (d *Driver) abort(p *sim.Proc, sqid, cid uint16) {
	d.ioc.Aborts++
	q := d.admin
	if !q.Slots.AcquireTimeout(p, d.cfg.CmdTimeout) {
		return // a device dead enough to have zombied every admin slot
	}
	slot := q.take()
	cmd := nvme.Command{
		Opcode: nvme.AdminAbort, CID: slot,
		CDW10: uint32(sqid) | uint32(cid)<<16,
	}
	q.Push(&cmd)
	ev := d.h.Env.NewEvent()
	q.wait[slot] = ev
	d.tr.Emit(d.h.Env.Now(), "host", "abort",
		uint64(d.fn)<<32|uint64(sqid)<<16|uint64(cid), 0, "")
	q.Ring()
	got, ok := p.WaitTimeout(ev, d.cfg.CmdTimeout)
	if !ok {
		q.zombify(slot)
		return
	}
	d.putCpl(got.(*nvme.Completion))
	q.give(slot)
}

// splitIO fans a large I/O out as concurrent split requests, the way the
// block layer does when a request exceeds max_sectors_kb. The merged
// outcome keeps the first fragment error, the worst attempt count, and is
// indeterminate if any fragment was.
func (d *Driver) splitIO(p *sim.Proc, op uint8, lba uint64, blocks uint32, buf []byte, qIdx, splitBytes int) IOOutcome {
	splitBlocks := uint32(splitBytes / nvme.LBASize)
	worst := IOOutcome{Status: nvme.StatusSuccess}
	dev := &nvmeBlockDev{d: d, q: qIdx}
	var done []*sim.Event
	for off := uint32(0); off < blocks; off += splitBlocks {
		n := splitBlocks
		if blocks-off < n {
			n = blocks - off
		}
		var part []byte
		if buf != nil {
			part = buf[int(off)*nvme.LBASize : int(off+n)*nvme.LBASize]
		}
		off := off
		proc := d.h.Env.Go("host/split", func(sp *sim.Proc) {
			oc := d.h.parking.IO(sp, dev, op, lba+uint64(off), n, part)
			if oc.Status.IsError() && worst.Status == nvme.StatusSuccess {
				worst.Status = oc.Status
			}
			if oc.TimedOut {
				worst.TimedOut = true
			}
			if oc.Attempts > worst.Attempts {
				worst.Attempts = oc.Attempts
			}
		})
		done = append(done, proc.Done())
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	return worst
}

// buildPRPs lays the slot's preallocated buffer out as PRP1/PRP2, writing
// the slot's PRP list page when more than two pages are needed.
func (d *Driver) buildPRPs(q *dq, slot uint16, nBytes int) (uint64, uint64) {
	base := q.buf[slot]
	pages := (nBytes + 4095) / 4096
	switch {
	case pages <= 1:
		return base, 0
	case pages == 2:
		return base, base + 4096
	default:
		list := q.prpPg[slot]
		if q.prpLen[slot] != pages {
			for i := 1; i < pages; i++ {
				d.h.Mem.WriteU64(list+uint64(i-1)*8, base+uint64(i)*4096)
			}
			q.prpLen[slot] = pages
		}
		return base, list
	}
}

// --- BlockDevice adapter ---

// BlockDev exposes the driver's namespace as a BlockDevice pinned to one
// I/O queue (one per workload thread, like per-CPU queues).
func (d *Driver) BlockDev(queue int) BlockDevice {
	return &nvmeBlockDev{d: d, q: queue}
}

type nvmeBlockDev struct {
	d *Driver
	q int
}

func (b *nvmeBlockDev) BlockSize() int         { return nvme.LBASize }
func (b *nvmeBlockDev) CapacityBlocks() uint64 { return b.d.nsBlocks }

// Submit starts one I/O episode on the device's queue (BlockDevice).
func (b *nvmeBlockDev) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(IOOutcome)) {
	b.d.submit(op, lba, blocks, buf, b.q, done)
}

func (b *nvmeBlockDev) ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error {
	return b.d.h.parking.IO(p, b, nvme.IORead, lba, blocks, buf).Err()
}

func (b *nvmeBlockDev) WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error {
	return b.d.h.parking.IO(p, b, nvme.IOWrite, lba, blocks, data).Err()
}

func (b *nvmeBlockDev) Flush(p *sim.Proc) error {
	return b.d.h.parking.IO(p, b, nvme.IOFlush, 0, 0, nil).Err()
}

func (b *nvmeBlockDev) PerIOCPU() sim.Time {
	c := b.d.h.Kernel.PerIOCPU
	if b.d.cfg.VM != nil {
		c += b.d.cfg.VM.ExtraCPUPerIO
	}
	return c
}
