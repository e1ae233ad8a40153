package ssd

// This file is the SSD's I/O data path: what the device does with a command
// the target controller (internal/nvmet) has fetched from an I/O submission
// queue, up to the completion it hands back for posting. It is written in
// continuation-passing style. Each step is a method bound once to a pooled
// record (ssdIO per command, nandStripe per parallel NAND read), and each wait
// in virtual time — a DMA round trip, a die, a pacer — is an Env.Schedule or
// a resource callback that names the next step. A command therefore costs no
// process, no goroutine hand-off and, at steady state, no heap allocation;
// DESIGN.md §11 gives the rules the chain follows and what holds its timing
// in place.
//
// Order matters inside a step: pacer reservations, RNG draws, die acquires,
// DMA bookings, trace emits and fault-rule evaluations are synchronous, and
// the sequence in which they happen decides queue order and tie-breaking,
// hence every timestamp downstream. Comments below call out the positions
// that are load-bearing.
//
// The tracer (d.tr) and the fault injector (d.flt) are probes that do
// nothing when nil: `ssd issue`/`complete`, `media` latency/status, and the
// CaptureData hazards (`media-corrupt`, `misdirected-read`, `torn-write`);
// the `ssd-stall` window of the fetch step is SSD.FetchStall (ssd.go).
//
// Admin commands run on processes instead (admin.go): they are rare and
// stateful.

import (
	"slices"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

// nandStripe is one pooled parallel-NAND read of a multi-stripe command.
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
	// Pure queueing for the die: the service time starts now.
	s.io.span.Wait(timeline.WaitDie, s.d.env.Now()-s.t0)
	s.d.env.After(s.lat, s.doneFn)
}

// done releases the die, then — only when this is the last outstanding
// stripe — schedules the parent continuation one queue hop after the
// release, so waiters on the freed die are served first.
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

// ssdIO is one pooled in-flight I/O command. All bound continuation funcs are
// created once when the record is first allocated and reused across commands.
type ssdIO struct {
	d      *SSD
	sq     *nvmet.SQ
	cmd    nvme.Command
	sqHead uint32

	devByte uint64
	n       int
	segs    []nvme.Segment
	t0      sim.Time // post-PRP-walk timestamp: stats + media attribution base
	mt0     sim.Time // media phase start (after any injected latency spike)
	lat     sim.Time // single-stripe NAND latency
	media   sim.Time
	acq0    sim.Time  // single-stripe die-acquire start (die-wait attribution)
	span    *obs.Span // the request this command is part of, found by its device-domain alias

	remaining int // outstanding parallel NAND stripes

	// Injected-fault state of this command (zero when no injector is
	// attached): the status a fired media rule carries across its latency
	// spike, and the CaptureData hazards evaluated at issue.
	fltStatus nvme.Status
	hzd       hazards

	walk nvmet.PRPWalk // PRP-list pages; only transfers over two pages fetch any
	dbuf []byte        // pooled staging for a read segment that is damaged or straddles blocks (CaptureData only)
	bufs [][]byte      // pooled write-payload segment buffers (CaptureData only)

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

func (d *SSD) getIO(sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) *ssdIO {
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
	d.ctl.ReleasePRPs(&io.walk)
	io.sq = nil
	if io.segs != nil {
		io.segs = io.segs[:0]
	}
	d.ioFree = append(d.ioFree, io)
}

// start validates the command and dispatches on its opcode.
func (io *ssdIO) start() {
	d := io.d
	if d.resetting {
		io.finish(nvme.StatusNSNotReady)
		return
	}
	switch io.cmd.Opcode {
	case nvme.IOFlush:
		d.env.After(d.cfg.FlushLatency, io.flushDoneFn)
		return
	case nvme.IORead, nvme.IOWrite, nvme.IOWriteZeroes:
		// handled below
	default:
		io.finish(nvme.StatusInvalidOpcode)
		return
	}
	ns := d.ns(io.cmd.NSID)
	if ns == nil {
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
		d.env.After(d.cfg.WriteCacheLatency, io.wzDoneFn)
		return
	}
	io.n = int(nlb) * BlockSize
	io.segs = slices.Grow(io.segs[:0], nvme.PagesSpanned(io.cmd.PRP1, io.n))
	io.walkAttempt()
}

func (io *ssdIO) flushDone() { io.finish(nvme.StatusSuccess) }
func (io *ssdIO) wzDone()    { io.finish(nvme.StatusSuccess) }

// walkAttempt resolves the command's PRPs, fetching at most one missing list
// page per attempt (see nvmet.PRPWalk).
func (io *ssdIO) walkAttempt() {
	d := io.d
	segs, pending, err := d.ctl.WalkPRPs(&io.walk, io.segs[:0], io.cmd.PRP1, io.cmd.PRP2, io.n, io.walkFn)
	if pending {
		return
	}
	if err != nil {
		io.finish(nvme.StatusInvalidField)
		return
	}
	io.segs = segs
	io.t0 = d.env.Now()
	// The device's one lookup of the request: this queue and CID under the
	// device's id are the alias the engine backend registered, if a tenant
	// request is behind the command. Die waits, media time and the NAND/DMA
	// phase intervals go through the handle.
	io.span = d.met.SpanByAlias(obs.DevKey(d.spanDev, io.sq.ID, io.cmd.CID))
	d.tr.Emit(io.t0, "ssd", "issue", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(io.n), d.cfg.Serial)
	if d.flt != nil {
		io.injectFaults()
		return
	}
	io.startMedia()
}

// injectFaults evaluates the read-path media rule (latency spike, status, or
// both), then — at the instant the spike ends — the CaptureData hazards.
func (io *ssdIO) injectFaults() {
	d := io.d
	io.fltStatus = 0
	if io.cmd.Opcode == nvme.IORead {
		if r := d.mediaFault(io.devByte); r != nil {
			io.fltStatus = nvme.Status(r.Status)
			d.env.After(sim.Time(r.Duration), io.mediaFltFn)
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

// hazards carries the data-hazard faults evaluated for one command. They
// damage payload bytes on the captured-data path while the command still
// completes with success — silent corruption, not an error.
type hazards struct {
	corrupt   bool // flip one byte of the read payload
	misdirect bool // serve the neighbouring block's data
	torn      bool // persist only the first half of the write payload
}

// mediaFault evaluates the injected media fault of a read starting at
// devByte — a latency spike (Duration), an unrecoverable/transient status
// (Status), or both — and returns the fired rule, or nil. The die is the one
// serving the operation's first stripe, so die-targeted rules model a single
// failing NAND package. Callers hold a non-nil injector.
func (d *SSD) mediaFault(devByte uint64) *fault.Rule {
	die := int(devByte / uint64(d.cfg.StripeBytes) % uint64(d.cfg.Dies))
	r := d.flt.HitMedia(d.cfg.Serial, die, d.env.Now())
	if r != nil {
		d.tr.Emit(d.env.Now(), "fault", "media", uint64(die)<<16|uint64(r.Status), uint64(r.Duration), d.cfg.Serial)
	}
	return r
}

// dataHazards evaluates the data-hazard faults of one read or write. They
// are evaluated only when the rig captures real data (there is no payload to
// damage otherwise), so hazard rules on a digest-only rig count zero
// injections instead of silently "firing". Callers hold a non-nil injector.
func (d *SSD) dataHazards(op uint8, devByte uint64, n int) (hzd hazards) {
	if !d.cfg.CaptureData {
		return hzd
	}
	hit := func(pt fault.Point) bool {
		if d.flt.Hit(pt, d.cfg.Serial, d.env.Now()) == nil {
			return false
		}
		d.tr.Emit(d.env.Now(), "fault", pt.String(), devByte, uint64(n), d.cfg.Serial)
		return true
	}
	switch op {
	case nvme.IORead:
		hzd.corrupt = hit(fault.MediaCorrupt)
		hzd.misdirect = hit(fault.ReadMisdirect)
	case nvme.IOWrite:
		hzd.torn = hit(fault.WriteTorn)
	}
	return hzd
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
		// The jitter draw precedes the die acquire.
		io.lat = d.jitter(d.cfg.NANDReadLatency)
		io.acq0 = d.env.Now()
		d.dies.AcquireCB(io.dieAcqFn)
		return
	}
	// Stripes read in parallel across the die pool: latencies draw in loop
	// order now, and each stripe starts one queue hop later.
	io.remaining = stripes
	for i := 0; i < stripes; i++ {
		s := d.getStripe(io, d.jitter(d.cfg.NANDReadLatency))
		d.env.Schedule(0, s.startFn)
	}
}

func (io *ssdIO) dieAcquired(any) {
	io.span.Wait(timeline.WaitDie, io.d.env.Now()-io.acq0)
	io.d.env.After(io.lat, io.dieDoneFn)
}

func (io *ssdIO) dieDone() {
	io.d.dies.Release()
	io.nandDone()
}

// nandDone books the internal read bus — the pacer that bounds sequential
// read bandwidth at the paper's 3.3 GB/s. For a multi-stripe read it runs one
// hop after the last stripe's release (see nandStripe.done).
func (io *ssdIO) nandDone() {
	d := io.d
	done := d.readPacer.Reserve(int64(io.n))
	d.env.After(done-d.env.Now(), io.readPacedFn)
}

// readPaced ends the media phase (NAND array + internal read bus) and streams
// the payload upstream, one DMA per PRP segment, from where the bytes lie or
// from the command's staging buffer (readSource). A misdirected read serves the
// neighbouring block's bytes (an FTL mapping slip): only the data source
// shifts — timing, stats and the completion status all describe the block
// that was asked for. A corrupt read flips one byte mid-way through the first
// segment — deep enough to land in payload body rather than a caller-side
// header, modelling corruption the device's ECC missed.
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
			data = d.readSource(src+uint64(off), seg.Len, corrupt, &io.dbuf)
			corrupt = false
		}
		if t := d.port.DMAWrite(seg.Addr, seg.Len, data); t > last {
			last = t
		}
		off += seg.Len
	}
	d.env.After(last-d.env.Now(), io.readOutFn)
}

func (io *ssdIO) readOut() {
	d := io.d
	d.Ops.Reads++
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
	d.env.After(last-d.env.Now(), io.writeFetchFn)
}

// writeFetched starts the media phase once the payload has arrived: cache
// admission behind the sustained-write pacer, which models the flash program
// rate behind the cache and so bounds write bandwidth and IOPS.
func (io *ssdIO) writeFetched() {
	d := io.d
	io.mt0 = d.env.Now()
	// The pacer's backlog is the queueing delay this write will see behind
	// earlier writes' program time — the write-side analog of read die-queue
	// wait. Read it before Reserve adds this write.
	io.span.Wait(timeline.WaitDie, d.writePacer.Backlog())
	done := d.writePacer.Reserve(int64(io.n))
	d.env.After(done-d.env.Now(), io.writePacedFn)
}

// writePaced draws the cache jitter once the pacer wait is over and sits out
// the cache insertion.
func (io *ssdIO) writePaced() {
	d := io.d
	d.env.After(d.jitter(d.cfg.WriteCacheLatency), io.writeDoneFn)
}

func (io *ssdIO) writeDone() {
	d := io.d
	io.media = d.env.Now() - io.mt0
	if d.cfg.CaptureData {
		// A torn write persists only the first half of the payload while
		// still completing with success: the tail keeps whatever bytes the
		// media held before (power-cut tearing past the write cache).
		keep := io.n
		if io.hzd.torn {
			keep = io.n / 2
		}
		d.persist(io.devByte, io.bufs[:len(io.segs)], keep)
	}
	d.Ops.Writes++
	d.mWriteBytes.AddAt(int64(d.env.Now()), uint64(io.n))
	io.finishMedia()
}

// wbuf returns the i-th pooled write segment buffer sized to n, contents
// unspecified: the DMARead it is for fills all of it, sparse source pages
// included. A segment is at most one page, so an empty slot takes a whole
// array: a spare, if the SSD has one.
func (io *ssdIO) wbuf(i, n int) []byte {
	for len(io.bufs) <= i {
		io.bufs = append(io.bufs, nil)
	}
	b := io.bufs[i]
	if cap(b) < n {
		b = io.d.wholeArray()
	}
	b = b[:n]
	io.bufs[i] = b
	return b
}

// finishMedia records media attribution then completes successfully.
func (io *ssdIO) finishMedia() {
	d := io.d
	if d.met != nil && io.media > 0 {
		d.mMedia.Record(int64(io.media))
		io.span.Media(io.media)
		// Phase intervals derived from (t0, media, now): a read's media phase
		// leads and its upstream DMA follows; a write fetches over DMA first
		// and its media phase trails.
		now, m := d.env.Now(), io.media
		if io.cmd.Opcode == nvme.IORead {
			io.span.Phases(io.t0, io.t0+m, io.t0+m, now)
		} else {
			io.span.Phases(now-m, now, io.t0, now-m)
		}
	}
	d.tr.Emit(d.env.Now(), "ssd", "complete", uint64(io.cmd.Opcode)<<56|io.devByte, uint64(d.env.Now()-io.t0), d.cfg.Serial)
	io.finish(nvme.StatusSuccess)
}

// finish posts the CQE and recycles the record.
func (io *ssdIO) finish(status nvme.Status) {
	d, cqid := io.d, io.sq.CQID
	cpl := nvme.Completion{CID: io.cmd.CID, SQID: io.sq.ID, SQHead: uint16(io.sqHead), Status: status}
	d.putIO(io)
	d.ctl.PostCQE(cqid, cpl)
}
