// Package ssd models an NVMe SSD at the protocol and performance level: it
// fetches 64-byte SQEs from whatever memory sits upstream (host DRAM when
// direct-attached, BMS-Engine chip memory when behind BM-Store), executes
// admin and I/O commands, moves data by DMA through its PCIe port, posts
// CQEs, and raises interrupts.
//
// Performance comes from three calibrated mechanisms: a pool of NAND dies
// bounding random-read parallelism, a read-path pacer bounding sequential
// read bandwidth, and a write-path pacer bounding sustained write bandwidth
// (writes land in a capacitor-backed cache first, which is why cached 4K
// writes complete in ~11 µs on the paper's P4510).
package ssd

import (
	"fmt"
	"math/rand"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
	"bmstore/internal/trace"
)

// Config holds the performance and identity parameters of one SSD.
type Config struct {
	Serial   string
	Model    string
	Firmware string

	CapacityBytes uint64

	// Read path.
	Dies            int      // parallel NAND read units
	NANDReadLatency sim.Time // per-stripe NAND array read
	StripeBytes     int      // bytes one die serves per NAND read
	ReadBandwidth   float64  // sustained internal read path, bytes/s

	// Write path.
	WriteCacheLatency sim.Time // cache-hit insertion latency
	WriteBandwidth    float64  // sustained write admission, bytes/s

	// Command front end.
	CmdLatency   sim.Time // controller processing per command
	FlushLatency sim.Time

	// Jitter is the uniform relative spread (+/- fraction) applied to NAND
	// and cache service times. Real flash arrays are not metronomes; this
	// is what gives latency distributions their tails (the paper's
	// Fig. 12) without moving the means the calibration targets.
	Jitter float64

	// Firmware activation: commit + controller reset duration bounds.
	FWCommitMin sim.Time
	FWCommitMax sim.Time

	// CaptureData controls whether payload bytes are actually stored and
	// returned. Benchmarks turn this off to avoid copying gigabytes that
	// nothing inspects; integrity tests leave it on.
	CaptureData bool

	MaxNamespaces int

	// Media, when non-nil, replaces the flash timing model (die pool,
	// cache, pacers) with an arbitrary storage medium — the hook behind
	// §VI-A's SATA-HDD compatibility: the device keeps its NVMe face, the
	// medium underneath changes (see internal/sata).
	Media Media
}

// Media abstracts the storage medium's timing. Implementations block the
// calling process for the duration of the media operation; data movement
// and protocol handling stay in the device, which lends each operation a
// short-lived "ssd/media" process to block (see mediaProc in fastpath.go).
type Media interface {
	Read(p *sim.Proc, startByte uint64, n int)
	Write(p *sim.Proc, startByte uint64, n int)
	Flush(p *sim.Proc)
}

// P4510 returns a configuration calibrated against the paper's measured
// native numbers for the 2 TB Intel P4510 (Table V and Fig. 8/10): ~77 µs
// 4K QD1 reads, ~640 K random-read IOPS, 3.3 GB/s sequential read,
// 1.45 GB/s sequential write, ~11.6 µs cached 4K writes.
func P4510(serial string) Config {
	return Config{
		Serial:            serial,
		Model:             "INTEL SSDPE2KX020T8",
		Firmware:          "VDV10131",
		CapacityBytes:     2000 << 30, // 2 TB class
		Dies:              45,
		NANDReadLatency:   69 * sim.Microsecond,
		StripeBytes:       32 << 10,
		ReadBandwidth:     3.31e9,
		WriteCacheLatency: 1500 * sim.Nanosecond,
		WriteBandwidth:    1.45e9,
		CmdLatency:        700 * sim.Nanosecond,
		FlushLatency:      12 * sim.Microsecond,
		Jitter:            0.08,
		FWCommitMin:       5 * sim.Second,
		FWCommitMax:       8 * sim.Second,
		CaptureData:       true,
		MaxNamespaces:     32,
	}
}

// BlockSize is the logical block size of every namespace (LBA format 0).
const BlockSize = nvme.LBASize

// Register offsets on BAR0 (subset of the NVMe controller register map).
const (
	RegCC  = 0x14 // controller configuration (bit 0: enable)
	RegAQA = 0x24 // admin queue attributes: ACQS<<16 | ASQS (sizes-1)
	RegASQ = 0x28 // admin SQ base
	RegACQ = 0x30 // admin CQ base
)

type namespace struct {
	id       uint32
	startLBA uint64 // offset into the flat device LBA space
	sizeLBA  uint64
}

type subQueue struct {
	id       uint16
	ring     nvme.Ring
	cqid     uint16
	head     uint32
	tail     uint32
	fetching bool
	fs       *sqFetch // I/O queue fetch state machine (nil until first doorbell)
}

type compQueue struct {
	id    uint16
	ring  nvme.Ring
	tail  uint32
	phase bool
	irqFn pcie.FuncID
}

// SSD is one simulated NVMe device.
type SSD struct {
	env  *sim.Env
	cfg  Config
	port *pcie.Port
	tr   *trace.Tracer
	// flt is the rig's fault injector, cached at construction (nil when
	// injection is off). Fault rules target this device by its serial.
	flt *fault.Injector

	ready     bool
	resetting bool
	// dropped latches once a fault.SSDDrop rule arms: the device has been
	// surprise-removed and never answers again.
	dropped bool

	regASQ, regACQ, regAQA uint64

	sqs map[uint16]*subQueue
	cqs map[uint16]*compQueue

	nss       map[uint32]*namespace
	nextNSID  uint32
	allocLBA  uint64 // bump allocator over the flat device LBA space
	totalLBAs uint64

	dies       *sim.Resource
	readPacer  *sim.Pacer
	writePacer *sim.Pacer

	fwActive  string
	fwStaged  []byte
	upgrades  int
	store     map[uint64][]byte // device LBA -> 4K block (CaptureData mode)
	readyAt   sim.Time          // end of the current reset window
	onReady   []func()
	jitterRng *rand.Rand

	// Free lists of the I/O data path (fastpath.go): command records, NAND
	// stripe records, PRP list pages and deferred interrupt posts.
	ioFree      []*ssdIO
	stripeFree  []*nandStripe
	pageFree    [][]byte
	irqPostFree []*irqPost
	// cqeBuf is the CQE encode scratch: DMAWrite copies synchronously into
	// host memory, so one reusable buffer replaces a per-CQE escape.
	cqeBuf [nvme.CQESize]byte

	// ReadStats and WriteStats accumulate device-level I/O accounting,
	// exposed to the BMS-Controller's I/O monitor.
	ReadStats  stats.IOStats
	WriteStats stats.IOStats

	// Per-device instruments, cached at construction; all nil-safe no-ops
	// when the environment has no metrics registry.
	met         *obs.Registry
	tl          bool // timeline recording on (cached from the registry)
	mMedia      *obs.Hist
	mReadOps    *obs.Counter
	mWriteOps   *obs.Counter
	mReadBytes  *obs.Counter
	mWriteBytes *obs.Counter
}

// New returns an unattached SSD. Call Attach to put it on a link.
func New(env *sim.Env, cfg Config) *SSD {
	if cfg.Dies <= 0 || cfg.StripeBytes <= 0 {
		panic("ssd: invalid die configuration")
	}
	d := &SSD{
		env:        env,
		cfg:        cfg,
		tr:         env.Tracer(),
		flt:        env.Faults(),
		sqs:        make(map[uint16]*subQueue),
		cqs:        make(map[uint16]*compQueue),
		nss:        make(map[uint32]*namespace),
		nextNSID:   1,
		totalLBAs:  cfg.CapacityBytes / BlockSize,
		dies:       sim.NewResource(env, cfg.Dies),
		readPacer:  sim.NewPacer(env, cfg.ReadBandwidth),
		writePacer: sim.NewPacer(env, cfg.WriteBandwidth),
		fwActive:   cfg.Firmware,
		store:      make(map[uint64][]byte),
		jitterRng:  env.Rand("ssd/jitter/" + cfg.Serial),
	}
	if d.met = env.Metrics(); d.met != nil {
		d.tl = d.met.TimelineEnabled()
		comp := d.met.Component("ssd/" + cfg.Serial)
		d.mMedia = comp.Hist("media_ns")
		d.mReadOps = comp.Counter("read_ops")
		d.mWriteOps = comp.Counter("write_ops")
		d.mReadBytes = comp.RateCounter("read_bytes")
		d.mWriteBytes = comp.RateCounter("write_bytes")
	}
	return d
}

// jitter spreads a nominal service time by the configured uniform factor,
// preserving its mean.
func (d *SSD) jitter(t sim.Time) sim.Time {
	if d.cfg.Jitter <= 0 {
		return t
	}
	f := 1 + d.cfg.Jitter*(2*d.jitterRng.Float64()-1)
	return sim.Time(float64(t) * f)
}

// Attach connects the SSD beneath the given port. The port's device must be
// this SSD (pcie.Connect(..., dev)).
func (d *SSD) Attach(port *pcie.Port) { d.port = port }

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// FirmwareVersion returns the currently active firmware revision.
func (d *SSD) FirmwareVersion() string { return d.fwActive }

// Upgrades returns how many firmware activations the device has performed.
func (d *SSD) Upgrades() int { return d.upgrades }

// Ready reports whether the controller is enabled, not resetting, and not
// surprise-removed.
func (d *SSD) Ready() bool { return d.ready && !d.resetting && !d.gone() }

// gone reports whether the device has been surprise-removed by a
// fault.SSDDrop rule, latching the state on first observation. Once gone,
// the device behaves like an empty slot: doorbells are lost, SQE fetch
// stops, and completions never post.
func (d *SSD) gone() bool {
	if d.dropped {
		return true
	}
	if d.flt != nil && d.flt.Dropped(d.cfg.Serial, d.env.Now()) {
		d.dropped = true
		if d.tr != nil {
			d.tr.Emit(d.env.Now(), "fault", "ssd-drop", 0, 0, d.cfg.Serial)
		}
	}
	return d.dropped
}

// Namespaces returns the active namespace IDs in ascending order.
func (d *SSD) Namespaces() []uint32 {
	var ids []uint32
	for id := range d.nss {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; tiny n
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}

// RegWrite implements pcie.RegDevice: the doorbell and config register
// surface of the controller.
func (d *SSD) RegWrite(fn pcie.FuncID, off uint64, val uint64) {
	if qid, isCQ, ok := nvme.DoorbellQueue(off); ok {
		d.doorbell(qid, isCQ, uint32(val))
		return
	}
	switch off {
	case RegAQA:
		d.regAQA = val
	case RegASQ:
		d.regASQ = val
	case RegACQ:
		d.regACQ = val
	case RegCC:
		if val&1 == 1 && !d.ready {
			d.enable()
		} else if val&1 == 0 {
			d.disable()
		}
	default:
		panic(fmt.Sprintf("ssd: write to unknown register %#x", off))
	}
}

// enable brings the controller up with the admin queue pair from the
// configuration registers.
func (d *SSD) enable() {
	asqs := uint32(d.regAQA&0xFFF) + 1
	acqs := uint32(d.regAQA>>16&0xFFF) + 1
	d.sqs[0] = &subQueue{
		id:   0,
		ring: nvme.Ring{Base: d.regASQ, Entries: asqs, EntrySz: nvme.SQESize},
	}
	d.cqs[0] = &compQueue{
		id:    0,
		ring:  nvme.Ring{Base: d.regACQ, Entries: acqs, EntrySz: nvme.CQESize},
		phase: true,
	}
	d.ready = true
}

func (d *SSD) disable() {
	d.ready = false
	d.sqs = make(map[uint16]*subQueue)
	d.cqs = make(map[uint16]*compQueue)
}

func (d *SSD) doorbell(qid uint16, isCQ bool, val uint32) {
	if !d.ready || d.resetting || d.gone() {
		return // doorbells to a dead controller are lost, as on hardware
	}
	if isCQ {
		// CQ head doorbell: host consumed entries; nothing blocks on it in
		// this model, so just accept it.
		return
	}
	sq, ok := d.sqs[qid]
	if !ok {
		return
	}
	sq.tail = val % sq.ring.Entries
	if sq.fetching {
		return
	}
	sq.fetching = true
	if qid == 0 {
		// The admin queue is served by processes: admin commands are rare
		// and stateful (namespace management, firmware commit and reset).
		d.env.Go(fmt.Sprintf("ssd/%s/sq%d", d.cfg.Serial, qid), func(p *sim.Proc) {
			d.adminFetchLoop(p, sq)
		})
		return
	}
	// I/O queues are served by the continuation chain in fastpath.go; the
	// fetch starts one queue hop from now.
	if sq.fs == nil {
		sq.fs = newSQFetch(d, sq)
	}
	d.env.Schedule(0, sq.fs.stepFn)
}

// adminFetchLoop drains the admin submission queue: it DMA-reads SQEs in
// arrival order and spawns one execution process per command (fetch is
// sequential; execution is parallel). I/O queues run the same steps as
// continuations (sqFetch in fastpath.go).
func (d *SSD) adminFetchLoop(p *sim.Proc, sq *subQueue) {
	defer func() { sq.fetching = false }()
	for sq.head != sq.tail {
		if d.resetting || !d.ready || d.gone() {
			return
		}
		// Injected controller stall: the fetch engine freezes until the
		// window ends (commands already executing are unaffected).
		if d.flt != nil {
			if end := d.flt.StallUntil(fault.SSDStall, d.cfg.Serial, p.Now()); end > p.Now() {
				if d.tr != nil {
					d.tr.Emit(p.Now(), "fault", "ssd-stall", uint64(sq.id), uint64(end-p.Now()), d.cfg.Serial)
				}
				p.Sleep(end - p.Now())
				continue // re-check liveness after the stall
			}
		}
		var buf [nvme.SQESize]byte
		done := d.port.DMARead(sq.ring.SlotAddr(sq.head), nvme.SQESize, buf[:])
		if wait := done - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		cmd := nvme.DecodeCommand(&buf)
		sq.head = sq.ring.Next(sq.head)
		sqHead := sq.head
		p.Sleep(d.cfg.CmdLatency)
		d.env.Go("ssd/exec", func(p *sim.Proc) {
			cpl := nvme.Completion{CID: cmd.CID, SQID: sq.id, SQHead: uint16(sqHead)}
			cpl.DW0, cpl.Status = d.execAdmin(p, cmd)
			d.postCQE(sq.cqid, cpl)
		})
	}
}

// postCQE writes the completion into the CQ ring upstream and raises the
// interrupt for it.
func (d *SSD) postCQE(cqid uint16, cpl nvme.Completion) {
	if d.gone() {
		return // a removed device posts nothing; the command is lost
	}
	cq, ok := d.cqs[cqid]
	if !ok {
		return
	}
	cpl.Phase = cq.phase
	cpl.Encode(&d.cqeBuf)
	addr := cq.ring.SlotAddr(cq.tail)
	cq.tail = cq.ring.Next(cq.tail)
	if cq.tail == 0 {
		cq.phase = !cq.phase
	}
	done := d.port.DMAWrite(addr, nvme.CQESize, d.cqeBuf[:])
	delay := done - d.env.Now()
	if delay < 0 {
		delay = 0
	}
	d.postIRQ(delay, int(cqid))
}

// irqPost is a pooled deferred interrupt: the MSI-X for a posted CQE is
// raised once the CQE's DMA write has landed upstream, without a closure per
// completion. Admin and I/O completions share it.
type irqPost struct {
	d   *SSD
	vec int
	run func()
}

func (d *SSD) postIRQ(delay sim.Time, vec int) {
	var m *irqPost
	if n := len(d.irqPostFree); n > 0 {
		m = d.irqPostFree[n-1]
		d.irqPostFree = d.irqPostFree[:n-1]
	} else {
		m = &irqPost{d: d}
		m.run = m.fire
	}
	m.vec = vec
	d.env.Schedule(delay, m.run)
}

func (m *irqPost) fire() {
	d, vec := m.d, m.vec
	d.irqPostFree = append(d.irqPostFree, m)
	d.port.RaiseIRQ(0, vec)
}
