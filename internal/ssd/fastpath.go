package ssd

// This file implements the SSD's event-fused I/O data path: a
// continuation-passing rewrite of fetchLoop/exec/execIO that replaces the
// per-queue fetch process and the per-command execution process with pooled
// state machines driven directly by scheduler callbacks. It is the path every
// rig runs — bare, traced, faulted, chaos and crash alike; the process-based
// code in ssd.go/io.go is the reference the A/B tests compare it against.
//
// The rewrite is hop-for-hop timing-identical to the classic path — every
// virtual-time sleep becomes an Env.Schedule at the same program point, and
// every synchronous classic step (pacer reservations, RNG draws, resource
// acquisition, DMA bookings, trace emits, fault-rule evaluations) runs at the
// same call position — so queue order, tie-breaking, and therefore every
// timestamp, every component trace record and every fault firing in the
// simulation are unchanged. What disappears is the overhead that carries no
// virtual time: goroutine handoffs, per-command process spawns (and with them
// the kernel's spawn/resume trace records), and per-command heap allocations.
// See DESIGN.md §11 for the exact fusion rules and the proof obligations
// each continuation discharges.
//
// The tracer (d.tr) and the fault injector (d.flt) are nil-checked probes
// here exactly as in the classic code: `ssd issue`/`complete`, the
// `ssd-stall` window in the fetch step, `media` latency/status, and the
// CaptureData hazards (`media-corrupt`, `misdirected-read`, `torn-write`).
//
// Eligibility (d.fast, cached at construction): the environment's FastPath
// must hold (it does unless the rig asked for the classic reference path),
// and the device must use the built-in flash timing model (cfg.Media
// implementations receive a *sim.Proc and may block it). The admin queue
// (SQ 0) always takes the classic path: admin commands are rare, stateful,
// and not worth fusing.

import (
	"encoding/binary"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

// after runs fn once delay has elapsed: the continuation mirror of
// Proc.Sleep, including its run-immediately semantics at zero delay.
func (d *SSD) after(delay sim.Time, fn func()) {
	if delay > 0 {
		d.env.Schedule(delay, fn)
		return
	}
	fn()
}

// sqFetch is the continuation form of fetchLoop: one per submission queue,
// created on the first fast-path doorbell and reused for the queue's
// lifetime. Fetch stays strictly sequential per queue, exactly like the
// classic fetch process.
type sqFetch struct {
	d   *SSD
	sq  *subQueue
	buf [nvme.SQESize]byte

	// Command parked between SQE decode and the CmdLatency continuation.
	pendCmd  nvme.Command
	pendHead uint32

	stepFn     func()
	decodedFn  func()
	dispatchFn func()
}

func newSQFetch(d *SSD, sq *subQueue) *sqFetch {
	f := &sqFetch{d: d, sq: sq}
	f.stepFn = f.step
	f.decodedFn = f.decoded
	f.dispatchFn = f.dispatch
	return f
}

// step is one iteration of the classic fetch loop: exit checks, the
// injected-stall window, then the SQE DMA fetch.
func (f *sqFetch) step() {
	d, sq := f.d, f.sq
	if sq.head == sq.tail {
		sq.fetching = false
		return
	}
	if d.resetting || !d.ready || d.gone() {
		sq.fetching = false
		return
	}
	if d.flt != nil {
		// Injected controller stall: the fetch engine freezes until the
		// window ends, then re-runs the exit checks (the classic `continue`).
		now := d.env.Now()
		if end := d.flt.StallUntil(fault.SSDStall, d.cfg.Serial, now); end > now {
			if d.tr != nil {
				d.tr.Emit(now, "fault", "ssd-stall", uint64(sq.id), uint64(end-now), d.cfg.Serial)
			}
			d.env.Schedule(end-now, f.stepFn)
			return
		}
	}
	done := d.port.DMARead(sq.ring.SlotAddr(sq.head), nvme.SQESize, f.buf[:])
	d.after(done-d.env.Now(), f.decodedFn)
}

func (f *sqFetch) decoded() {
	d, sq := f.d, f.sq
	f.pendCmd = nvme.DecodeCommand(&f.buf)
	sq.head = sq.ring.Next(sq.head)
	f.pendHead = sq.head
	d.after(d.cfg.CmdLatency, f.dispatchFn)
}

// dispatch mirrors the classic loop's `env.Go(exec)` + next iteration: the
// command's state machine starts one queue hop later (the position of the
// classic process-start event), while the fetch loop continues immediately —
// preserving the interleaving of this queue's next SQE fetch with the
// command's own DMA bookings.
func (f *sqFetch) dispatch() {
	d := f.d
	io := d.getIO(f.sq, f.pendCmd, f.pendHead)
	d.env.Schedule(0, io.startFn)
	f.step()
}

// cpsPRP is the fast path's PRP list walker. The classic prpReader blocks
// the executing process mid-walk to fetch each list page; a continuation
// cannot block, so the fast path walks with this cache-only reader, records
// the first page it misses, fetches that page (same DMA booking, same
// virtual-time wait), and retries. The walk itself consumes no virtual time
// and page fetches are sequential either way, so the DMA call sequence and
// timestamps are identical to the classic path's.
type cpsPRP struct {
	pages   map[uint64][]byte
	used    []uint64 // insertion order, for recycling into the page pool
	miss    uint64
	missSet bool
}

func (w *cpsPRP) ReadU64(addr uint64) uint64 {
	pg := addr &^ uint64(nvme.PageSize-1)
	if b, ok := w.pages[pg]; ok {
		return binary.LittleEndian.Uint64(b[addr-pg:])
	}
	if !w.missSet {
		w.missSet = true
		w.miss = pg
	}
	return 0
}

// nandStripe is one pooled parallel-NAND read: the continuation form of the
// classic per-stripe "ssd/nand" process.
type nandStripe struct {
	d   *SSD
	io  *ssdIO
	lat sim.Time
	t0  sim.Time // acquire-start timestamp for die-wait attribution

	startFn func()
	acqFn   func(any)
	doneFn  func()
}

func (d *SSD) getStripe(io *ssdIO, lat sim.Time) *nandStripe {
	var s *nandStripe
	if n := len(d.stripeFree); n > 0 {
		s = d.stripeFree[n-1]
		d.stripeFree = d.stripeFree[:n-1]
	} else {
		s = &nandStripe{d: d}
		s.startFn = s.start
		s.acqFn = s.acquired
		s.doneFn = s.done
	}
	s.io, s.lat = io, lat
	return s
}

func (s *nandStripe) start() {
	s.t0 = s.d.env.Now()
	s.d.dies.AcquireCB(s.acqFn)
}

func (s *nandStripe) acquired(any) {
	if a := s.io.alias; a != 0 {
		// Same value the classic stripe process measures: elapsed around
		// dies.Use minus the service time, i.e. pure queueing for the die.
		s.d.met.SpanWaitDev(a, timeline.WaitDie, int64(s.d.env.Now()-s.t0))
	}
	s.d.after(s.lat, s.doneFn)
}

// done releases the die, then — only when this is the last outstanding
// stripe — schedules the parent continuation at zero delay, mirroring the
// classic stripe process's done-event trigger: the classic parent resumes
// during the fire of the chronologically last stripe's done event, one queue
// hop after that stripe's release.
func (s *nandStripe) done() {
	d, io := s.d, s.io
	s.io = nil
	d.stripeFree = append(d.stripeFree, s)
	d.dies.Release()
	io.remaining--
	if io.remaining == 0 {
		d.env.Schedule(0, io.nandDoneFn)
	}
}

// ssdIO is one pooled in-flight I/O command: the continuation form of the
// classic exec/execIO process. All bound continuation funcs are created once
// when the record is first allocated and reused across commands.
type ssdIO struct {
	d      *SSD
	sq     *subQueue
	cmd    nvme.Command
	sqHead uint32

	devByte uint64
	n       int
	segs    []nvme.Segment
	t0      sim.Time // post-PRP-walk timestamp: stats + media attribution base
	mt0     sim.Time // media phase start (after any injected latency spike)
	lat     sim.Time // single-stripe NAND latency
	media   sim.Time
	acq0    sim.Time // single-stripe die-acquire start (die-wait attribution)
	alias   uint64   // device-domain span alias; zero when timeline is off

	remaining int // outstanding parallel NAND stripes

	// Injected-fault state of this command (zero when no injector is
	// attached): the status a fired media rule carries across its latency
	// spike, and the CaptureData hazards evaluated at issue.
	fltStatus nvme.Status
	hzd       hazards

	walker *cpsPRP  // lazy: only commands with PRP lists need it
	dbuf   []byte   // pooled read-payload staging (CaptureData only)
	bufs   [][]byte // pooled write-payload segment buffers (CaptureData only)

	startFn      func()
	walkFn       func()
	mediaFltFn   func()
	flushDoneFn  func()
	wzDoneFn     func()
	dieAcqFn     func(any)
	dieDoneFn    func()
	nandDoneFn   func()
	readPacedFn  func()
	readOutFn    func()
	writeFetchFn func()
	writePacedFn func()
	writeDoneFn  func()
}

func (d *SSD) getIO(sq *subQueue, cmd nvme.Command, sqHead uint32) *ssdIO {
	var io *ssdIO
	if n := len(d.ioFree); n > 0 {
		io = d.ioFree[n-1]
		d.ioFree = d.ioFree[:n-1]
	} else {
		io = &ssdIO{d: d}
		io.startFn = io.start
		io.walkFn = io.walkAttempt
		io.mediaFltFn = io.mediaFaulted
		io.flushDoneFn = io.flushDone
		io.wzDoneFn = io.wzDone
		io.dieAcqFn = io.dieAcquired
		io.dieDoneFn = io.dieDone
		io.nandDoneFn = io.nandDone
		io.readPacedFn = io.readPaced
		io.readOutFn = io.readOut
		io.writeFetchFn = io.writeFetched
		io.writePacedFn = io.writePaced
		io.writeDoneFn = io.writeDone
	}
	io.sq, io.cmd, io.sqHead = sq, cmd, sqHead
	return io
}

func (d *SSD) putIO(io *ssdIO) {
	if w := io.walker; w != nil && len(w.used) > 0 {
		for _, pg := range w.used {
			d.pageFree = append(d.pageFree, w.pages[pg])
			delete(w.pages, pg)
		}
		w.used = w.used[:0]
	}
	io.sq = nil
	if io.segs != nil {
		io.segs = io.segs[:0]
	}
	d.ioFree = append(d.ioFree, io)
}

func (d *SSD) getPage() []byte {
	if n := len(d.pageFree); n > 0 {
		b := d.pageFree[n-1]
		d.pageFree = d.pageFree[:n-1]
		return b
	}
	return make([]byte, nvme.PageSize)
}

// start runs at the position of the classic exec process's first activation
// and mirrors execIO's dispatch exactly.
func (io *ssdIO) start() {
	d := io.d
	if d.resetting {
		io.finish(nvme.StatusNSNotReady)
		return
	}
	switch io.cmd.Opcode {
	case nvme.IOFlush:
		d.after(d.cfg.FlushLatency, io.flushDoneFn)
		return
	case nvme.IORead, nvme.IOWrite, nvme.IOWriteZeroes:
		// handled below
	default:
		io.finish(nvme.StatusInvalidOpcode)
		return
	}
	ns, ok := d.nss[io.cmd.NSID]
	if !ok {
		io.finish(nvme.StatusInvalidNamespace)
		return
	}
	slba := io.cmd.SLBA()
	nlb := uint64(io.cmd.NLB())
	if slba+nlb > ns.sizeLBA {
		io.finish(nvme.StatusLBAOutOfRange)
		return
	}
	io.devByte = (ns.startLBA + slba) * BlockSize
	if io.cmd.Opcode == nvme.IOWriteZeroes {
		d.zeroBlocks(ns.startLBA+slba, nlb)
		d.after(d.cfg.WriteCacheLatency, io.wzDoneFn)
		return
	}
	io.n = int(nlb) * BlockSize
	io.walkAttempt()
}

func (io *ssdIO) flushDone() { io.finish(nvme.StatusSuccess) }
func (io *ssdIO) wzDone()    { io.finish(nvme.StatusSuccess) }

// walkAttempt resolves the command's PRPs, fetching at most one missing list
// page per attempt (see cpsPRP).
func (io *ssdIO) walkAttempt() {
	d := io.d
	w := io.walker
	if w == nil {
		w = &cpsPRP{pages: make(map[uint64][]byte)}
		io.walker = w
	}
	w.missSet = false
	segs, err := nvme.WalkPRPsInto(io.segs[:0], w, io.cmd.PRP1, io.cmd.PRP2, io.n)
	if w.missSet {
		b := d.getPage()
		done := d.port.DMARead(w.miss, nvme.PageSize, b)
		w.pages[w.miss] = b
		w.used = append(w.used, w.miss)
		d.after(done-d.env.Now(), io.walkFn)
		return
	}
	if err != nil {
		io.finish(nvme.StatusInvalidField)
		return
	}
	io.segs = segs
	io.t0 = d.env.Now()
	io.alias = 0
	if d.tl {
		io.alias = obs.DevKey(d.cfg.Serial, io.sq.id, io.cmd.CID)
	}
	if d.tr != nil {
		d.tr.Emit(io.t0, "ssd", "issue", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(io.n), d.cfg.Serial)
	}
	if d.flt != nil {
		io.injectFaults()
		return
	}
	io.startMedia()
}

// injectFaults is execIO's fault block: the read-path media rule (latency
// spike, status, or both), then — at the instant the spike ends — the
// CaptureData hazards.
func (io *ssdIO) injectFaults() {
	d := io.d
	io.fltStatus = 0
	if io.cmd.Opcode == nvme.IORead {
		if r := d.mediaFault(io.devByte); r != nil {
			io.fltStatus = nvme.Status(r.Status)
			d.after(sim.Time(r.Duration), io.mediaFltFn)
			return
		}
	}
	io.mediaFaulted()
}

func (io *ssdIO) mediaFaulted() {
	if io.fltStatus != 0 {
		io.finish(io.fltStatus)
		return
	}
	io.hzd = io.d.dataHazards(io.cmd.Opcode, io.devByte, io.n)
	io.startMedia()
}

func (io *ssdIO) startMedia() {
	if io.cmd.Opcode == nvme.IORead {
		io.startRead()
	} else {
		io.startWrite()
	}
}

// --- read path ---

func (io *ssdIO) startRead() {
	d := io.d
	io.mt0 = d.env.Now()
	stripes := (io.n + d.cfg.StripeBytes - 1) / d.cfg.StripeBytes
	if stripes == 1 {
		// Jitter draws at the classic argument-evaluation position, before
		// the die acquire.
		io.lat = d.jitter(d.cfg.NANDReadLatency)
		io.acq0 = d.env.Now()
		d.dies.AcquireCB(io.dieAcqFn)
		return
	}
	// Parallel stripes: latencies draw in loop order at dispatch time and
	// each stripe starts one queue hop later, both exactly as the classic
	// spawn loop does.
	io.remaining = stripes
	for i := 0; i < stripes; i++ {
		s := d.getStripe(io, d.jitter(d.cfg.NANDReadLatency))
		d.env.Schedule(0, s.startFn)
	}
}

func (io *ssdIO) dieAcquired(any) {
	if io.alias != 0 {
		io.d.met.SpanWaitDev(io.alias, timeline.WaitDie, int64(io.d.env.Now()-io.acq0))
	}
	io.d.after(io.lat, io.dieDoneFn)
}

func (io *ssdIO) dieDone() {
	io.d.dies.Release()
	io.nandDone()
}

// nandDone books the internal read bus; for the multi-stripe path it runs
// one hop after the last stripe's release (see nandStripe.done).
func (io *ssdIO) nandDone() {
	d := io.d
	done := d.readPacer.Reserve(int64(io.n))
	d.after(done-d.env.Now(), io.readPacedFn)
}

// readPaced is classic dmaOut: the media phase ends here, then payload
// segments stream upstream. A misdirected read shifts only the data source
// by one block; a corrupt read flips one byte mid-way through the first
// segment — both exactly as doRead/dmaOut do.
func (io *ssdIO) readPaced() {
	d := io.d
	io.media = d.env.Now() - io.mt0
	src := io.devByte
	if io.hzd.misdirect {
		src += BlockSize
	}
	corrupt := io.hzd.corrupt
	var last sim.Time
	off := 0
	for _, seg := range io.segs {
		var data []byte
		if d.cfg.CaptureData {
			if cap(io.dbuf) < seg.Len {
				io.dbuf = make([]byte, seg.Len)
			}
			data = d.readBytesInto(io.dbuf[:seg.Len], src+uint64(off), seg.Len)
			if corrupt && len(data) > 0 {
				data[len(data)/2] ^= 0xA5
				corrupt = false
			}
		}
		if t := d.port.DMAWrite(seg.Addr, seg.Len, data); t > last {
			last = t
		}
		off += seg.Len
	}
	d.after(last-d.env.Now(), io.readOutFn)
}

func (io *ssdIO) readOut() {
	d := io.d
	d.ReadStats.Record(io.n, d.env.Now()-io.t0)
	d.mReadOps.Inc()
	d.mReadBytes.AddAt(int64(d.env.Now()), uint64(io.n))
	io.finishMedia()
}

// --- write path ---

func (io *ssdIO) startWrite() {
	d := io.d
	var last sim.Time
	for i, seg := range io.segs {
		var buf []byte
		if d.cfg.CaptureData {
			buf = io.wbuf(i, seg.Len)
		}
		if t := d.port.DMARead(seg.Addr, seg.Len, buf); t > last {
			last = t
		}
	}
	d.after(last-d.env.Now(), io.writeFetchFn)
}

func (io *ssdIO) writeFetched() {
	d := io.d
	io.mt0 = d.env.Now()
	if io.alias != 0 {
		// The pacer's backlog is the queueing delay this write will see
		// behind earlier writes' program time — the write-side analog of
		// read die-queue wait. Read before Reserve, as in the classic path.
		d.met.SpanWaitDev(io.alias, timeline.WaitDie, int64(d.writePacer.Backlog()))
	}
	done := d.writePacer.Reserve(int64(io.n))
	d.after(done-d.env.Now(), io.writePacedFn)
}

// writePaced draws the cache jitter after the pacer wait completes — the
// classic RNG call position — and sleeps it out.
func (io *ssdIO) writePaced() {
	d := io.d
	d.after(d.jitter(d.cfg.WriteCacheLatency), io.writeDoneFn)
}

func (io *ssdIO) writeDone() {
	d := io.d
	io.media = d.env.Now() - io.mt0
	if d.cfg.CaptureData {
		// A torn write persists only the first half of the payload while
		// still completing with success (see doWrite).
		keep := io.n
		if io.hzd.torn {
			keep = io.n / 2
		}
		off := 0
		for i := range io.segs {
			b := io.bufs[i]
			if off >= keep {
				break
			}
			if off+len(b) > keep {
				b = b[:keep-off]
			}
			d.writeBytes(io.devByte+uint64(off), b)
			off += len(b)
		}
	}
	d.WriteStats.Record(io.n, d.env.Now()-io.t0)
	d.mWriteOps.Inc()
	d.mWriteBytes.AddAt(int64(d.env.Now()), uint64(io.n))
	io.finishMedia()
}

// wbuf returns the i-th pooled write segment buffer sized to n. The buffer
// is zeroed on reuse so sparse source pages read back as zeroes, matching
// the fresh allocation the classic path makes.
func (io *ssdIO) wbuf(i, n int) []byte {
	for len(io.bufs) <= i {
		io.bufs = append(io.bufs, nil)
	}
	b := io.bufs[i]
	if cap(b) < n {
		b = make([]byte, n)
		io.bufs[i] = b
	}
	b = b[:n]
	io.bufs[i] = b
	for j := range b {
		b[j] = 0
	}
	return b
}

// finishMedia records media attribution then completes successfully.
func (io *ssdIO) finishMedia() {
	d := io.d
	if d.met != nil && io.media > 0 {
		d.mMedia.Record(int64(io.media))
		d.met.SpanMedia(obs.DevKey(d.cfg.Serial, io.sq.id, io.cmd.CID), int64(io.media))
		if io.alias != 0 {
			// Phase intervals derived from (t0, media, now), mirroring the
			// classic execIO attribution point exactly.
			now, m := int64(d.env.Now()), int64(io.media)
			if io.cmd.Opcode == nvme.IORead {
				d.met.SpanPhases(io.alias, int64(io.t0), int64(io.t0)+m, int64(io.t0)+m, now)
			} else {
				d.met.SpanPhases(io.alias, now-m, now, int64(io.t0), now-m)
			}
		}
	}
	if d.tr != nil {
		d.tr.Emit(d.env.Now(), "ssd", "complete", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(d.env.Now()-io.t0), d.cfg.Serial)
	}
	io.finish(nvme.StatusSuccess)
}

// finish posts the CQE and recycles the record: the continuation mirror of
// the classic exec process's epilogue.
func (io *ssdIO) finish(status nvme.Status) {
	d := io.d
	var cpl nvme.Completion
	cpl.CID = io.cmd.CID
	cpl.SQID = io.sq.id
	cpl.SQHead = uint16(io.sqHead)
	cpl.Status = status
	cqid := io.sq.cqid
	d.putIO(io)
	d.postCQE(cqid, cpl)
}
