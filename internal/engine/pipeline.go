package engine

// This file is the BMS-Engine's I/O data path: the Fig. 6 pipeline a command
// enters once the target controller (internal/nvmet) has fetched it from a
// function's I/O submission queue (dispatch → LBA map → QoS admission →
// global-PRP rewrite → forward), the host adaptor's submit to a back-end SSD,
// and the completion's way back to the tenant's CQ. Like the SSD's data path
// (internal/ssd/io.go; rules in DESIGN.md §11) it is written in
// continuation-passing style: every wait in virtual time is an Env.Schedule
// or a resource/event callback naming the next step, synchronous steps —
// trace emits (`engine dispatch`/`map`) and the `backend-stall` fault window
// in the submit gate loop included — keep a fixed call order, and
// per-command records come from free lists.

import (
	"slices"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/nvmet"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

// feIO is one pooled in-flight front-end command: steps 2-3 of the paper's
// Fig. 6 (LBA mapping, QoS admission, PRP rewriting into global PRPs,
// forwarding to the host adaptor) and the join of the sub-completions.
type feIO struct {
	e      *Engine
	f      *function
	sq     *nvmet.SQ
	cmd    nvme.Command
	sqHead uint32

	ns     *Namespace
	span   *obs.Span // the tenant's request span, found at dispatch; nil without one
	slba   uint64
	nlb    uint32
	nBytes int
	start0 sim.Time
	qosT0  sim.Time
	epoch  uint64 // crash generation captured at start; stale → bail

	// What the command keeps across its waits: its extents, its
	// sub-commands until the last is forwarded (and, for a write, until the
	// journal ack), its chip-memory list pages until the last sub-completion,
	// and its flush targets. The walk holds fetched host list pages only
	// until assembleSubs has read them; the segments it resolves go into
	// engine scratch (Engine.segScratch).
	extents []Extent
	subs    []subCommand
	lists   []uint64
	ssds    []int
	walk    nvmet.PRPWalk

	remaining int
	subIdx    int
	worst     nvme.Status

	mappedFn      func()
	admittedFn    func()
	walkFn        func()
	forwardNextFn func()
	forwardSubFn  func()
	subDoneFn     func(nvme.Completion)
	flushNextFn   func()
	flushDoneFn   func(nvme.Completion)
}

func (e *Engine) getFeIO(f *function, sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) *feIO {
	var io *feIO
	if n := len(e.feIOFree); n > 0 {
		io = e.feIOFree[n-1]
		e.feIOFree = e.feIOFree[:n-1]
	} else {
		io = &feIO{e: e}
		io.mappedFn = io.mapped
		io.admittedFn = io.admitted
		io.walkFn = io.walkAttempt
		io.forwardNextFn = io.forwardNext
		io.forwardSubFn = io.forwardSub
		io.subDoneFn = io.subDone
		io.flushNextFn = io.flushNext
		io.flushDoneFn = io.flushDone
	}
	io.f, io.sq, io.cmd, io.sqHead = f, sq, cmd, sqHead
	return io
}

func (e *Engine) putFeIO(io *feIO) {
	io.f.ctl.ReleasePRPs(&io.walk) // a no-op unless the walk failed
	io.f, io.sq, io.ns = nil, nil, nil
	if io.extents != nil {
		io.extents = io.extents[:0]
	}
	if io.subs != nil {
		io.subs = io.subs[:0]
	}
	if io.lists != nil {
		io.lists = io.lists[:0]
	}
	e.feIOFree = append(e.feIOFree, io)
}

// finish recycles the record and posts the command's completion.
func (io *feIO) finish(st nvme.Status) {
	f, sq, cid, sqHead := io.f, io.sq, io.cmd.CID, io.sqHead
	io.e.putFeIO(io)
	f.ctl.PostCQE(sq.CQID, nvme.Completion{CID: cid, SQID: sq.ID, SQHead: uint16(sqHead), Status: st})
}

func (io *feIO) start() {
	f, e := io.f, io.e
	if e.dead || e.crashDispatchHit() {
		// Hard crash: the command vanishes without a CQE; the host driver's
		// timeout machinery classifies it into the in-doubt window.
		e.putFeIO(io)
		return
	}
	io.epoch = e.epoch
	e.tr.Emit(e.env.Now(), trDispatch,
		uint64(f.id)<<32|uint64(io.sq.ID)<<16|uint64(io.cmd.Opcode), uint64(io.cmd.CID), "")
	ns := f.ns
	if ns == nil || io.cmd.NSID != FrontNSID {
		io.finish(nvme.StatusInvalidNamespace)
		return
	}
	io.ns = ns
	switch io.cmd.Opcode {
	case nvme.IOFlush:
		io.startFlush()
		return
	case nvme.IORead, nvme.IOWrite:
	default:
		io.finish(nvme.StatusInvalidOpcode)
		return
	}
	// The span key mirrors the one the host driver used at SpanStart: this is
	// the engine's one lookup of the request, and everything it records
	// afterwards — the back end's share included — goes through the handle.
	io.span = e.met.Span(obs.SpanKey(uint8(f.id), io.sq.ID, io.cmd.CID))
	io.span.Mark(timeline.PtDispatch, e.env.Now())
	e.fe.dispatched++

	io.slba = io.cmd.SLBA()
	io.nlb = io.cmd.NLB()
	if io.slba+uint64(io.nlb) > ns.SizeLBA {
		io.finish(nvme.StatusLBAOutOfRange)
		return
	}
	io.nBytes = int(io.nlb) * int(ns.blockSize)
	e.env.After(mapLatency, io.mappedFn) // LBA mapping (step 2)
}

func (io *feIO) mapped() {
	if io.e.dead || io.e.epoch != io.epoch {
		io.e.putFeIO(io)
		return
	}
	var err error
	io.extents, err = io.ns.mt.LookupRangeInto(io.extents[:0], io.slba, io.nlb)
	if err != nil {
		io.finish(nvme.StatusInternal)
		return
	}
	io.e.tr.Emit(io.e.env.Now(), trMap, io.slba, uint64(io.nlb)<<32|uint64(len(io.extents)), "")
	// QoS admission: over-threshold commands park in the command buffer
	// until the dispatcher re-admits them.
	io.qosT0 = io.e.env.Now()
	io.ns.admitCB(io.nBytes, io.admittedFn)
}

func (io *feIO) admitted() {
	if io.e.dead || io.e.epoch != io.epoch {
		io.e.putFeIO(io) // the QoS park outlived a crash
		return
	}
	io.span.Wait(timeline.WaitQoS, io.e.env.Now()-io.qosT0)
	io.start0 = io.e.env.Now()
	// PRP conversion to global PRPs, splitting the transfer when it crosses
	// a chunk boundary. A single extent covered by at most two pages is
	// tagged in the pipeline without touching memory; transfers with PRP
	// lists fetch the host list, rewrite every entry, and park the rewritten
	// list in chip memory, exactly as §IV-C describes.
	if subs, ok := io.f.simpleSub(io.cmd, io.extents, io.nBytes, io.subs[:0]); ok {
		io.subs = subs
		io.forward()
		return
	}
	io.walkAttempt()
}

// walkAttempt walks the tenant's PRPs into the engine's scratch and, once no
// list page is missing, rewrites them as global-PRP sub-commands. The fetched
// list pages have no reader after assembleSubs, so they go back to the
// controller's pool at once, where the next command's fetch finds them warm.
func (io *feIO) walkAttempt() {
	e := io.e
	e.segScratch = slices.Grow(e.segScratch[:0], nvme.PagesSpanned(io.cmd.PRP1, io.nBytes))
	segs, pending, err := io.f.ctl.WalkPRPs(&io.walk, e.segScratch, io.cmd.PRP1, io.cmd.PRP2, io.nBytes, io.walkFn)
	if pending {
		return // a host PRP-list page is on its way; walkFn retries from scratch
	}
	if err != nil {
		io.finish(nvme.StatusInvalidField)
		return
	}
	e.segScratch = segs
	io.subs, io.lists, e.extScratch = io.f.assembleSubs(segs, io.extents, io.subs[:0], io.lists[:0], e.extScratch)
	io.f.ctl.ReleasePRPs(&io.walk)
	io.forward()
}

// forward closes the map+qos stage and hands the sub-commands to the host
// adaptor (step 3), one ForwardLatency hop per sub-command.
func (io *feIO) forward() {
	io.span.Mark(timeline.PtMapped, io.e.env.Now())
	io.remaining = len(io.subs)
	io.worst = nvme.StatusSuccess
	io.subIdx = 0
	io.forwardNext()
}

func (io *feIO) forwardNext() {
	if io.subIdx >= len(io.subs) {
		return // all submitted; completions drive the rest
	}
	io.e.env.After(forwardLatency, io.forwardSubFn)
}

func (io *feIO) forwardSub() {
	e := io.e
	sub := io.subs[io.subIdx]
	io.subIdx++
	be := e.backends[sub.ssd]
	bcmd := nvme.Command{Opcode: io.cmd.Opcode, PRP1: sub.prp1, PRP2: sub.prp2}
	bcmd.SetSLBA(sub.physLBA)
	bcmd.SetNLB(sub.blocks)
	be.submit(bcmd, int(io.f.id)*7+int(io.sq.ID), io.span, io.subDoneFn, io.forwardNextFn)
}

func (io *feIO) subDone(c nvme.Completion) {
	if io.e.dead || io.e.epoch != io.epoch {
		// Completion raced a crash. Other sub-completions may still hold
		// this record, so it is abandoned to the GC rather than pooled.
		return
	}
	if c.Status.IsError() && io.worst == nvme.StatusSuccess {
		io.worst = c.Status
	}
	io.remaining--
	if io.remaining > 0 {
		return
	}
	e := io.e
	io.span.Mark(timeline.PtBackendDone, e.env.Now())
	e.freeChipPages(io.lists)
	io.lists = io.lists[:0]
	lat := e.env.Now() - io.start0
	if io.cmd.Opcode == nvme.IORead {
		io.ns.ReadStats.Record(io.nBytes, lat)
	} else {
		io.ns.WriteStats.Record(io.nBytes, lat)
	}
	if e.onWriteAck != nil && io.cmd.Opcode == nvme.IOWrite && !io.worst.IsError() {
		e.journalAck(io.subs)
	}
	io.finish(io.worst)
}

// --- flush: fanned out to every backend the namespace touches ---

func (io *feIO) startFlush() {
	io.ssds = io.ns.ssdSetInto(io.ssds[:0])
	if len(io.ssds) == 0 {
		io.finish(nvme.StatusSuccess)
		return
	}
	io.e.fe.flushes++
	io.remaining = len(io.ssds)
	io.worst = nvme.StatusSuccess
	io.subIdx = 0
	io.flushNext()
}

func (io *feIO) flushNext() {
	if io.subIdx >= len(io.ssds) {
		return
	}
	idx := io.ssds[io.subIdx]
	io.subIdx++
	be := io.e.backends[idx]
	be.submit(nvme.Command{Opcode: nvme.IOFlush}, int(io.f.id), nil, io.flushDoneFn, io.flushNextFn)
}

func (io *feIO) flushDone(c nvme.Completion) {
	if c.Status.IsError() && io.worst == nvme.StatusSuccess {
		io.worst = c.Status
	}
	io.remaining--
	if io.remaining == 0 {
		io.finish(io.worst)
	}
}

// --- backend submit ---

// beSubmit is one pooled in-flight submission attempt.
type beSubmit struct {
	b         *backend
	q         *nvmei.Queue
	cmd       nvme.Command
	qhint     int
	span      *obs.Span
	t0        sim.Time
	epoch     uint64 // crash generation captured at submit entry
	done      func(nvme.Completion)
	submitted func()

	gateFn func()
	slotFn func(any)
}

// submit sends one I/O command to the SSD, respecting the quiesce gate
// and queue-depth flow control. done runs in scheduler context on command
// completion; submitted runs right after the SQE push, so a caller can pace
// its next submission. qhint spreads submitters over the queue pairs. span,
// when non-nil, is the tenant request's span; the backend aliases it to the
// device-side (device, queue, CID) coordinates so the SSD can attribute its
// media time to the right request.
func (b *backend) submit(cmd nvme.Command, qhint int, span *obs.Span, done func(nvme.Completion), submitted func()) {
	var s *beSubmit
	if n := len(b.submitFree); n > 0 {
		s = b.submitFree[n-1]
		b.submitFree = b.submitFree[:n-1]
	} else {
		s = &beSubmit{b: b}
		s.gateFn = s.gate
		s.slotFn = s.slot
	}
	s.cmd, s.qhint, s.span, s.done, s.submitted = cmd, qhint, span, done, submitted
	s.t0 = b.e.env.Now()
	s.epoch = b.e.epoch
	s.gate()
}

// gate re-checks the quiesce gate, parking on it while closed — commands
// held here are the "stored I/O context" of the paper: the host sees added
// latency, never an error — then sits out any injected host-adaptor stall (a
// congested or wedged back-end path) before queueing for an SQ slot.
func (s *beSubmit) gate() {
	b := s.b
	if b.e.dead || b.e.epoch != s.epoch {
		b.putSubmit(s)
		return // crash swallowed the submission; host timeout covers it
	}
	if b.gateClosed {
		b.gateWait = append(b.gateWait, s.gateFn)
		return
	}
	if flt := b.e.flt; flt != nil {
		now := b.e.env.Now()
		if end := sim.Time(flt.StallUntil(fault.BackendSubmit, b.dev.Config().Serial, int64(now))); end > now {
			b.e.tr.Emit(now, trFaultBackendStall, uint64(b.idx), uint64(end-now), b.dev.Config().Serial)
			// Re-check the gate afterwards in case a quiesce started meanwhile.
			b.e.env.Schedule(end-now, s.gateFn)
			return
		}
	}
	s.q = b.ioQs[s.qhint%len(b.ioQs)]
	s.q.Slots.AcquireCB(s.slotFn)
}

func (s *beSubmit) slot(any) {
	b, q := s.b, s.q
	if b.e.dead || b.e.epoch != s.epoch {
		q.Slots.Release()
		b.putSubmit(s)
		return // the slot wait spanned a crash; hand the slot straight back
	}
	if b.gateClosed {
		// The gate closed during the slot wait, and a released slot reaches
		// its next holder one event later: the drain may already have seen
		// zero in flight. Give the slot back and park like any held command.
		q.Slots.Release()
		s.gate()
		return
	}
	cid := b.allocCID()
	cmd := s.cmd
	cmd.CID = cid
	cmd.NSID = b.backendNSID
	b.inflight++
	if b.e.met != nil {
		// Quiesce-gate plus backend SQ slot wait, measured from submit entry
		// to the slot grant.
		s.span.Wait(timeline.WaitBackend, b.e.env.Now()-s.t0)
		b.e.met.SpanAlias(s.span, obs.DevKey(b.spanDev, q.ID, cid))
		b.mInflight.Inc(b.e.env.Now())
	}
	*b.submitted++
	b.pending.Put(cid, b.getPending(q, s.done))
	submitted := s.submitted
	b.putSubmit(s)
	q.Push(&cmd)
	q.Ring()
	submitted()
}

// putSubmit recycles a finished (or swallowed) submission record.
func (b *backend) putSubmit(s *beSubmit) {
	s.q, s.span, s.done, s.submitted = nil, nil, nil, nil
	b.submitFree = append(b.submitFree, s)
}

func (b *backend) getPending(q *nvmei.Queue, done func(nvme.Completion)) *bePending {
	if n := len(b.pendFree); n > 0 {
		p := b.pendFree[n-1]
		b.pendFree = b.pendFree[:n-1]
		p.q, p.done = q, done
		return p
	}
	return &bePending{q: q, done: done}
}

// doneMsg is a pooled deferred completion delivery: the CompleteLatency
// stage of backend.complete without a per-completion closure (admin and I/O
// completions alike).
type doneMsg struct {
	b   *backend
	fn  func(nvme.Completion)
	cpl nvme.Completion
	run func()
}

func (b *backend) scheduleDone(fn func(nvme.Completion), cpl nvme.Completion) {
	var m *doneMsg
	if n := len(b.doneFree); n > 0 {
		m = b.doneFree[n-1]
		b.doneFree = b.doneFree[:n-1]
	} else {
		m = &doneMsg{b: b}
		m.run = m.fire
	}
	m.fn, m.cpl = fn, cpl
	b.e.env.Schedule(completeLatency, m.run)
}

func (m *doneMsg) fire() {
	b, fn, cpl := m.b, m.fn, m.cpl
	m.fn = nil
	b.doneFree = append(b.doneFree, m)
	fn(cpl)
}
