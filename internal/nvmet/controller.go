// Package nvmet is the NVMe target controller: the device side of the queue
// protocol, written once. The paper's transparency claim is that both faces
// of the card speak stock NVMe — a tenant's unmodified driver sees each PF/VF
// of the BMS-Engine as "a complete virtual NVMe controller" (Fig. 6), and the
// host adaptor drives unmodified SSDs below — so the engine's front end and
// the SSD model each hold one Controller and keep only what is theirs.
//
// A Controller owns the register window (CC/AQA/ASQ/ACQ and the doorbells),
// the SQ/CQ tables, SQE fetch (one continuation chain per queue, the admin
// queue's included), Create/Delete I/O SQ/CQ, the PRP-list reader with its
// page pool, and CQE post + interrupt. What a command *does* belongs to the
// Owner, which also answers the few questions on which the two devices
// differ. DESIGN.md §11's rule holds throughout: the order of the
// synchronous work inside a step — liveness checks, fault probes, DMA
// bookings, Schedule calls — is part of the timing model.
package nvmet

import (
	"encoding/binary"
	"fmt"

	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// Owner is the device behind a Controller: it executes the commands the
// controller fetches and gates the controller on its own liveness.
type Owner interface {
	// MayFetch reports whether the device accepts doorbells and fetches
	// SQEs right now. It is consulted only while the controller is enabled,
	// at every doorbell and before every SQE fetch, so an implementation
	// that latches state or emits a trace record does so at fixed positions.
	MayFetch() bool
	// MayPost reports whether the device can still post completions; a
	// false answer drops the CQE and its interrupt without a trace.
	MayPost() bool
	// FetchStall returns how long queue sqid's fetch engine must freeze
	// from now (an injected controller stall); zero means fetch on. The
	// liveness checks re-run when the window ends.
	FetchStall(sqid uint16) sim.Time
	// StartIO takes ownership of a command fetched from an I/O queue. The
	// controller books the queue's next SQE fetch right after it returns,
	// before the command's own work can book anything.
	StartIO(sq *SQ, cmd nvme.Command, sqHead uint32)
	// ExecAdmin executes one admin command on its own process and posts its
	// completion. Queue management opcodes come back through QueueAdmin.
	ExecAdmin(p *sim.Proc, sq *SQ, cmd nvme.Command, sqHead uint32)
}

// Config is what a Controller needs to know about its device up front.
type Config struct {
	// FetchLatency is the controller's processing time per fetched SQE.
	FetchLatency sim.Time
	// ExecProc names the admin commands' execution processes (trace digests
	// fold spawn names).
	ExecProc string
}

// SQ is one submission queue. Fetch is strictly sequential per queue;
// execution of the fetched commands is up to the owner.
type SQ struct {
	ID   uint16
	CQID uint16 // completion queue the queue's commands complete into

	c        *Controller
	ring     nvme.Ring
	head     uint32
	tail     uint32
	fetching bool
	buf      [nvme.SQESize]byte

	// Fetch chain: the command parked between SQE decode and the
	// FetchLatency continuation, and the steps, bound at the first doorbell.
	pendCmd    nvme.Command
	pendHead   uint32
	stepFn     func()
	decodedFn  func()
	dispatchFn func()
}

type compQueue struct {
	ring  nvme.Ring
	tail  uint32
	phase bool
}

// Controller is one NVMe controller as seen from above its PCIe port.
type Controller struct {
	env   *sim.Env
	owner Owner
	cfg   Config
	port  *pcie.Port
	fn    pcie.FuncID

	regAQA, regASQ, regACQ uint64
	enabled                bool

	// Queue tables, indexed by queue id and grown to the highest id created;
	// a deleted queue leaves a nil entry. Ids arrive off the wire (doorbell
	// offsets, admin commands, the owner's CQ id), so every use goes through
	// sq and cq, which bounds-check.
	sqs []*SQ
	cqs []*compQueue

	// cqeBuf is the CQE encode scratch: DMAWrite copies synchronously into
	// upstream memory, so one reusable buffer replaces a per-CQE escape.
	cqeBuf   [nvme.CQESize]byte
	listFree [][]byte // PRP-list entry buffers, sized to what each command used
	irqFree  []*irqPost
	execFree []*adminExec
}

// New returns a disabled controller for function fn. Attach gives it the
// port it fetches, posts and interrupts through.
func New(env *sim.Env, owner Owner, fn pcie.FuncID, cfg Config) *Controller {
	c := &Controller{env: env, owner: owner, fn: fn, cfg: cfg}
	c.Disable()
	return c
}

// Attach connects the controller beneath port.
func (c *Controller) Attach(port *pcie.Port) { c.port = port }

// Enabled reports whether CC.EN is set.
func (c *Controller) Enabled() bool { return c.enabled }

// RegWrite is the controller's BAR0 write surface: the configuration
// registers and the doorbell window. Writes to other offsets are ignored.
func (c *Controller) RegWrite(off, val uint64) {
	if qid, isCQ, ok := nvme.DoorbellQueue(off); ok {
		c.doorbell(qid, isCQ, uint32(val))
		return
	}
	switch off {
	case nvme.RegAQA:
		c.regAQA = val
	case nvme.RegASQ:
		c.regASQ = val
	case nvme.RegACQ:
		c.regACQ = val
	case nvme.RegCC:
		if val&1 == 1 && !c.enabled {
			c.enable()
		} else if val&1 == 0 {
			c.Disable()
		}
	}
}

// SinksReg reports whether a write to BAR0 offset off is one the controller
// discards in every state: a CQ head doorbell (see doorbell). Owners pass it
// through as their pcie.RegSinker answer, so such a write costs its link
// booking and no delivery event.
func SinksReg(off uint64) bool {
	_, isCQ, ok := nvme.DoorbellQueue(off)
	return ok && isCQ
}

// enable brings the controller up with the admin queue pair described by
// the configuration registers.
func (c *Controller) enable() {
	asqs := uint32(c.regAQA&0xFFF) + 1
	acqs := uint32(c.regAQA>>16&0xFFF) + 1
	c.sqs = []*SQ{{c: c, ring: nvme.Ring{Base: c.regASQ, Entries: asqs, EntrySz: nvme.SQESize}}}
	c.cqs = []*compQueue{{ring: nvme.Ring{Base: c.regACQ, Entries: acqs, EntrySz: nvme.CQESize}, phase: true}}
	c.enabled = true
}

// Disable clears CC.EN and forgets every queue; whoever drives the
// controller must re-initialise it. A fetch in flight notices at its next
// step.
func (c *Controller) Disable() {
	c.enabled = false
	c.sqs, c.cqs = nil, nil
}

// sq returns submission queue qid, or nil when there is none.
func (c *Controller) sq(qid uint16) *SQ {
	if int(qid) < len(c.sqs) {
		return c.sqs[qid]
	}
	return nil
}

// cq returns completion queue qid, or nil when there is none.
func (c *Controller) cq(qid uint16) *compQueue {
	if int(qid) < len(c.cqs) {
		return c.cqs[qid]
	}
	return nil
}

// setQueue stores q under qid, growing the table to reach it.
func setQueue[Q any](tab []*Q, qid uint16, q *Q) []*Q {
	for len(tab) <= int(qid) {
		tab = append(tab, nil)
	}
	tab[qid] = q
	return tab
}

func (c *Controller) doorbell(qid uint16, isCQ bool, val uint32) {
	if !c.enabled || !c.owner.MayFetch() {
		return // doorbells to a dead controller are lost, as on hardware
	}
	if isCQ {
		// CQ head doorbell: nothing blocks on it in this model, which is
		// what SinksReg tells the port — one that asks delivers none.
		return
	}
	sq := c.sq(qid)
	if sq == nil {
		return
	}
	sq.tail = val % sq.ring.Entries
	if sq.fetching {
		return
	}
	sq.fetching = true
	// Every queue, the admin queue included, is served by one continuation
	// chain, starting one queue hop from now: step books the SQE read on the
	// link, and events already queued for this instant book theirs first.
	// The hop is part of the timing model
	// (TestFetchStartsOneHopAfterTheDoorbell).
	if sq.stepFn == nil {
		sq.stepFn, sq.decodedFn, sq.dispatchFn = sq.step, sq.decoded, sq.dispatch
	}
	c.env.Schedule(0, sq.stepFn)
}

// step is one iteration of a queue's fetch loop: exit checks, the
// injected-stall window, then the SQE DMA fetch.
func (sq *SQ) step() {
	c := sq.c
	if sq.head == sq.tail || !c.enabled || !c.owner.MayFetch() {
		sq.fetching = false
		return
	}
	if stall := c.owner.FetchStall(sq.ID); stall > 0 {
		c.env.Schedule(stall, sq.stepFn)
		return
	}
	done := c.port.DMARead(sq.ring.SlotAddr(sq.head), nvme.SQESize, sq.buf[:])
	c.env.After(done-c.env.Now(), sq.decodedFn)
}

// decoded runs when the SQE has arrived and starts the controller's
// per-command processing time. Nothing observes this instant — the entry was
// copied when the read was booked, and nothing reads head before dispatch —
// yet waiting out round trip and FetchLatency as one After from step is not
// equivalent: dispatch's queue entry would then be pushed a round trip
// earlier, ahead of every entry pushed meanwhile for the same nanosecond,
// and what dispatch does (the next SQE read, the owner's first step) books
// links those entries book too. One small traced rig in a hundred emits
// different records that way (TestModelledBehaviourPinned carries two such
// seeds), so the two waits stay two events.
func (sq *SQ) decoded() {
	sq.pendCmd = nvme.DecodeCommand(&sq.buf)
	sq.head = sq.ring.Next(sq.head)
	sq.pendHead = sq.head
	sq.c.env.After(sq.c.cfg.FetchLatency, sq.dispatchFn)
}

// dispatch hands the decoded command to the owner and continues fetching
// immediately: this queue's next SQE fetch is booked on the link before the
// command's own DMAs. An admin command runs on an execution process of its
// own, since admin commands are rare and stateful (namespace management,
// firmware commit and reset); an I/O command starts its owner's chain.
func (sq *SQ) dispatch() {
	c := sq.c
	if sq.ID == 0 {
		x := c.getExec()
		x.sq, x.cmd, x.sqHead = sq, sq.pendCmd, sq.pendHead
		c.env.Go(c.cfg.ExecProc, x.run)
	} else {
		c.owner.StartIO(sq, sq.pendCmd, sq.pendHead)
	}
	sq.step()
}

// adminExec carries one fetched admin command to the process that executes
// it: a pooled record whose run, bound once, is the process body. The
// record goes back to the pool as the body starts.
type adminExec struct {
	sq     *SQ
	cmd    nvme.Command
	sqHead uint32
	run    func(p *sim.Proc)
}

func (c *Controller) getExec() *adminExec {
	if n := len(c.execFree); n > 0 {
		x := c.execFree[n-1]
		c.execFree = c.execFree[:n-1]
		return x
	}
	x := &adminExec{}
	x.run = x.body
	return x
}

func (x *adminExec) body(p *sim.Proc) {
	sq, cmd, sqHead := x.sq, x.cmd, x.sqHead
	c := sq.c
	x.sq = nil
	c.execFree = append(c.execFree, x)
	c.owner.ExecAdmin(p, sq, cmd, sqHead)
}

// QueueAdmin executes Create/Delete I/O Submission/Completion Queue. Queue
// 0 is the admin pair and can be neither created nor deleted (Delete I/O SQ
// is opcode 0x00, so an all-zero SQE lands here); an existing queue is never
// silently replaced; a CQ outlives every SQ that completes into it.
func (c *Controller) QueueAdmin(cmd nvme.Command) nvme.Status {
	qid := uint16(cmd.CDW10)
	size := cmd.CDW10>>16 + 1
	sqExists, cqExists := c.sq(qid) != nil, c.cq(qid) != nil
	switch cmd.Opcode {
	case nvme.AdminCreateIOCQ:
		if qid == 0 || size < 2 || cqExists {
			return nvme.StatusInvalidQueueID
		}
		c.cqs = setQueue(c.cqs, qid, &compQueue{ring: nvme.Ring{Base: cmd.PRP1, Entries: size, EntrySz: nvme.CQESize}, phase: true})
	case nvme.AdminCreateIOSQ:
		cqid := uint16(cmd.CDW11 >> 16)
		if c.cq(cqid) == nil || qid == 0 || size < 2 || sqExists {
			return nvme.StatusInvalidQueueID
		}
		c.sqs = setQueue(c.sqs, qid, &SQ{ID: qid, CQID: cqid, c: c, ring: nvme.Ring{Base: cmd.PRP1, Entries: size, EntrySz: nvme.SQESize}})
	case nvme.AdminDeleteIOSQ:
		if qid == 0 || !sqExists {
			return nvme.StatusInvalidQueueID
		}
		c.sqs[qid] = nil
	case nvme.AdminDeleteIOCQ:
		if qid == 0 || !cqExists {
			return nvme.StatusInvalidQueueID
		}
		for _, sq := range c.sqs {
			if sq != nil && sq.CQID == qid {
				return nvme.StatusInvalidQueueDeletion
			}
		}
		c.cqs[qid] = nil
	default:
		return nvme.StatusInvalidOpcode
	}
	return nvme.StatusSuccess
}

// PostCQE writes one completion entry into CQ cqid upstream and raises the
// interrupt for it once the write has landed (step 7 of the paper's Fig. 6).
// The MSI books the link at that landing instant and not here: reserving its
// slot now would put it ahead of every write posted in between
// (TestInterruptBooksTheLinkWhenTheCQELands).
func (c *Controller) PostCQE(cqid uint16, cpl nvme.Completion) {
	if !c.owner.MayPost() {
		return // the command is lost; the driver's timeout covers it
	}
	cq := c.cq(cqid)
	if cq == nil {
		return
	}
	cpl.Phase = cq.phase
	cpl.Encode(&c.cqeBuf)
	addr := cq.ring.SlotAddr(cq.tail)
	cq.tail = cq.ring.Next(cq.tail)
	if cq.tail == 0 {
		cq.phase = !cq.phase
	}
	done := c.port.DMAWrite(addr, nvme.CQESize, c.cqeBuf[:])
	delay := done - c.env.Now()
	if delay < 0 {
		delay = 0
	}
	var m *irqPost
	if n := len(c.irqFree); n > 0 {
		m = c.irqFree[n-1]
		c.irqFree = c.irqFree[:n-1]
	} else {
		m = &irqPost{c: c}
		m.run = m.fire
	}
	m.vec = int(cqid)
	c.env.Schedule(delay, m.run)
}

// irqPost is a pooled deferred interrupt: the MSI-X for a posted CQE (vector
// = CQ id) is raised once the CQE's DMA write has landed upstream, without a
// closure per completion.
type irqPost struct {
	c   *Controller
	vec int
	run func()
}

func (m *irqPost) fire() {
	c, vec := m.c, m.vec
	c.irqFree = append(c.irqFree, m)
	c.port.RaiseIRQ(c.fn, vec)
}

// PRPWalk is the PRP-list reader of one in-flight command. A continuation
// cannot block mid-walk to fetch a list page the way a real controller's
// PRP fetch engine stalls, so the walk runs against this cache-only reader,
// records the first page it misses, fetches that page over DMA, and retries.
// The walk itself consumes no virtual time, so this is one sequential page
// fetch per list page, each charged its round trip — what a blocking walk
// would cost. The zero value is ready; commands without a PRP list never
// touch it.
//
// A fetch moves a whole list page across the link and keeps the entries the
// transfer uses of it, which nvme.ListEntries knows from the transfer's shape
// and the page's position in the chain: a 128 KiB command holds 248 bytes of
// list, not 4 KiB. The walk reads entries in order, nvme.PRPsPerList from
// every list page before the last, so the position of the page it missed is
// its read count divided by that.
//
// The walk keeps its pages until ReleasePRPs, which the owner calls right
// after the step that last reads them: the engine once it has rewritten the
// list as global PRPs, an SSD once it has re-walked the list (Rewalk) for
// its payload DMAs. The pool is LIFO, so the next command's fetch takes a
// buffer that is still in cache. Segments are the caller's: neither call
// keeps them.
type PRPWalk struct {
	fetched []listPage // in fetch order
	reads   int        // entries the current attempt has read
	miss    uint64
	missSet bool
}

// listPage is the used head of one fetched PRP-list page.
type listPage struct {
	addr    uint64
	entries []byte
}

// ReadU64 implements nvme.PageReader over the pages fetched so far, searched
// newest first. Only a miss fetches and a fetched page never misses — a page
// kept short is the list's last, which nothing follows — so no page is held
// twice and a hit never reads past what was kept.
func (w *PRPWalk) ReadU64(addr uint64) uint64 {
	w.reads++
	pg := addr &^ uint64(nvme.PageSize-1)
	for i := len(w.fetched) - 1; i >= 0; i-- {
		if f := &w.fetched[i]; f.addr == pg {
			return binary.LittleEndian.Uint64(f.entries[addr-pg:])
		}
	}
	if !w.missSet {
		w.missSet = true
		w.miss = pg
	}
	return 0
}

// WalkPRPs resolves a command's PRPs into segs, fetching at most one missing
// list page per attempt. When it had to fetch, it reports pending: retry —
// the caller's own attempt step — runs when the page has arrived (at once if
// the round trip is already over), and the returned segments mean nothing.
func (c *Controller) WalkPRPs(w *PRPWalk, segs []nvme.Segment, prp1, prp2 uint64, n int, retry func()) (out []nvme.Segment, pending bool, err error) {
	w.missSet, w.reads = false, 0
	out, err = nvme.WalkPRPsInto(segs, w, prp1, prp2, n)
	if !w.missSet {
		return out, false, err
	}
	// The miss ended the walk, so it was the attempt's last read.
	need := 8 * nvme.ListEntries(prp1, n, (w.reads-1)/nvme.PRPsPerList)
	var b []byte
	if k := len(c.listFree); k > 0 {
		b = c.listFree[k-1]
		c.listFree = c.listFree[:k-1]
	}
	if cap(b) < need {
		b = make([]byte, need) // a too-small pooled buffer is dropped for this one
	}
	b = b[:need]
	done := c.port.DMARead(w.miss, nvme.PageSize, b)
	w.fetched = append(w.fetched, listPage{w.miss, b})
	c.env.After(done-c.env.Now(), retry)
	return nil, true, nil
}

// Rewalk resolves a command's PRPs into segs again, over the list pages a
// finished WalkPRPs of the same command kept: it reads no memory, fetches
// nothing and takes no time, so an owner need not keep the segments across a
// wait. want is the segment count the first walk resolved. A page that is
// not kept, an error or another count is a simulator bug, and Rewalk panics.
func (c *Controller) Rewalk(w *PRPWalk, segs []nvme.Segment, prp1, prp2 uint64, n, want int) []nvme.Segment {
	w.missSet, w.reads = false, 0
	out, err := nvme.WalkPRPsInto(segs, w, prp1, prp2, n)
	if w.missSet || err != nil || len(out)-len(segs) != want {
		panic(fmt.Sprintf("nvmet: function %d: re-walk of PRP1 %#x PRP2 %#x (%d bytes) missed %v, err %v, %d segments, want %d",
			c.fn, prp1, prp2, n, w.missSet, err, len(out)-len(segs), want))
	}
	return out
}

// ReleasePRPs returns a command's list buffers to the pool, last fetched
// first, so a command of the same shape pops each at the size it needs. The
// owner calls it after the walk's last reader; calling it again, as the
// owner's record recycling does for the error and crash paths, is a no-op.
func (c *Controller) ReleasePRPs(w *PRPWalk) {
	for i := len(w.fetched) - 1; i >= 0; i-- {
		c.listFree = append(c.listFree, w.fetched[i].entries)
	}
	w.fetched = w.fetched[:0]
}
