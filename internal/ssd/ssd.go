// Package ssd models an NVMe SSD at the protocol and performance level. Its
// NVMe face — SQE fetch from whatever memory sits upstream (host DRAM when
// direct-attached, BMS-Engine chip memory when behind BM-Store), queue
// management, CQE post and interrupts — is the shared target controller
// (internal/nvmet); this package is the device behind it: it executes admin
// and I/O commands and moves data by DMA through its PCIe port.
//
// Performance comes from three calibrated mechanisms: a pool of NAND dies
// bounding random-read parallelism, a read-path pacer bounding sequential
// read bandwidth, and a write-path pacer bounding sustained write bandwidth
// (writes land in a capacitor-backed cache first, which is why cached 4K
// writes complete in ~11 µs on the paper's P4510).
package ssd

import (
	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// The SSD's trace records; an injected fault's record names its point.
var (
	trIssue         = trace.NewKey("ssd", "issue")
	trComplete      = trace.NewKey("ssd", "complete")
	trFaultMedia    = trace.NewKey("fault", "media")
	trFaultAdmin    = trace.NewKey("fault", "admin")
	trFaultSSDStall = trace.NewKey("fault", "ssd-stall")
	trFaultSSDDrop  = trace.NewKey("fault", "ssd-drop")
	trFaultHazard   = [...]*trace.Key{
		fault.MediaCorrupt:  trace.NewKey("fault", fault.MediaCorrupt.String()),
		fault.WriteTorn:     trace.NewKey("fault", fault.WriteTorn.String()),
		fault.ReadMisdirect: trace.NewKey("fault", fault.ReadMisdirect.String()),
	}
)

// Config holds the identity, capacity and firmware window of one SSD.
type Config struct {
	Serial   string
	Model    string
	Firmware string

	CapacityBytes uint64

	// Firmware activation: commit + controller reset duration bounds.
	FWCommitMin sim.Time
	FWCommitMax sim.Time

	// CaptureData controls whether payload bytes are actually stored and
	// returned. Benchmarks turn this off to avoid copying gigabytes that
	// nothing inspects; integrity tests leave it on.
	CaptureData bool
}

// The performance model is calibrated against the paper's measured native
// numbers for the 2 TB Intel P4510 (Table V and Fig. 8/10): ~77 µs 4K QD1
// reads, ~640 K random-read IOPS, 3.3 GB/s sequential read, 1.45 GB/s
// sequential write, ~11.6 µs cached 4K writes.
const (
	// Read path.
	dies            = 45                   // parallel NAND read units
	nandReadLatency = 69 * sim.Microsecond // per-stripe NAND array read
	stripeBytes     = 32 << 10             // bytes one die serves per NAND read
	readBandwidth   = 3.31e9               // sustained internal read path, bytes/s

	// Write path.
	writeCacheLatency = 1500 * sim.Nanosecond // cache-hit insertion latency
	writeBandwidth    = 1.45e9                // sustained write admission, bytes/s

	// Command front end.
	cmdLatency   = 700 * sim.Nanosecond // controller processing per command
	flushLatency = 12 * sim.Microsecond

	// jitterSpread is the uniform relative spread (+/- fraction) applied
	// to NAND and cache service times. Real flash arrays are not
	// metronomes; this is what gives latency distributions their tails
	// (the paper's Fig. 12) without moving the means the calibration
	// targets.
	jitterSpread = 0.08

	maxNamespaces = 32
)

// P4510 returns the identity of a 2 TB Intel P4510 with the given serial.
func P4510(serial string) Config {
	return Config{
		Serial:        serial,
		Model:         "INTEL SSDPE2KX020T8",
		Firmware:      "VDV10131",
		CapacityBytes: 2000 << 30, // 2 TB class
		FWCommitMin:   5 * sim.Second,
		FWCommitMax:   8 * sim.Second,
		CaptureData:   true,
	}
}

// BlockSize is the logical block size of every namespace (LBA format 0).
const BlockSize = nvme.LBASize

type namespace struct {
	startLBA uint64 // offset into the flat device LBA space
	sizeLBA  uint64
}

// SSD is one simulated NVMe device.
type SSD struct {
	env  *sim.Env
	cfg  Config
	port *pcie.Port
	ctl  *nvmet.Controller // the device's NVMe face; the SSD is its owner
	tr   *trace.Tracer
	// flt is the rig's fault injector, cached at construction (nil when
	// injection is off). Fault rules target this device by its serial.
	flt *fault.Injector

	resetting bool
	// dropped latches once a fault.SSDDrop rule arms: the device has been
	// surprise-removed and never answers again.
	dropped bool

	// nss is the namespace table, indexed by NSID: entry 0 is never used,
	// NSIDs are handed out in sequence and not reused, a deleted namespace
	// leaves a nil entry. Commands reach it through ns, which bounds-checks.
	nss       []*namespace
	allocLBA  uint64 // bump allocator over the flat device LBA space
	totalLBAs uint64

	dies       *sim.Resource
	readPacer  *sim.Pacer
	writePacer *sim.Pacer

	fwActive  string
	fwLen     int      // staged firmware image length: the end of its furthest chunk (admin.go)
	fwPages   []*block // staged firmware image by page, nil where it reads as zeroes (admin.go)
	fwChunk   []byte   // FW Download's DMA landing buffer, reused
	upgrades  int
	store     blockTable // device LBA -> stored prefix of its 4K block (CaptureData mode; store.go)
	spares    [][]byte   // whole arrays the store let go of, for staging slots and growing blocks (store.go)
	slab      []byte     // the uncut rest of the allocation short blocks are carved from (store.go)
	onReady   []func()
	jitterRng *sim.Rand

	// Free lists of the I/O data path (io.go): command records and NAND
	// stripe records.
	ioFree     []*ssdIO
	stripeFree []*nandStripe

	// Ops counts the reads and writes the device completed: the SMART log
	// reports them, and the registry reads them at export as read_ops and
	// write_ops. It lives apart from the SSD so that a registry outliving
	// the rig (an obs.Set keeps every rig's) holds the counts, not the rig.
	Ops *OpCounts

	// Per-device instruments, cached at construction; all nil-safe no-ops
	// when the environment has no metrics registry.
	met         *obs.Registry
	spanDev     uint32 // this device in the registry's span-alias domain
	mMedia      *obs.Hist
	mReadBytes  *obs.Counter
	mWriteBytes *obs.Counter

	// Scratch of the I/O data path (io.go) that no wait crosses, so it
	// belongs to the device, not to the command: the segments of one PRP
	// walk, valid within the step that walked them, and the staging of one
	// read segment that is damaged or straddles blocks (CaptureData only),
	// which readSource fills and the same iteration's DMAWrite copies out.
	// They come last so that no hot field above moves.
	segScratch []nvme.Segment
	dbuf       []byte
}

// OpCounts are the I/O commands an SSD completed.
type OpCounts struct{ Reads, Writes uint64 }

// New returns an unattached SSD. Call Attach to put it on a link.
func New(env *sim.Env, cfg Config) *SSD {
	d := &SSD{
		env:        env,
		cfg:        cfg,
		tr:         env.Tracer(),
		flt:        env.Faults(),
		nss:        make([]*namespace, 1),
		totalLBAs:  cfg.CapacityBytes / BlockSize,
		dies:       sim.NewResource(env, dies),
		readPacer:  sim.NewPacer(env, readBandwidth),
		writePacer: sim.NewPacer(env, writeBandwidth),
		fwActive:   cfg.Firmware,
		jitterRng:  env.Rand("ssd/jitter/" + cfg.Serial),
		Ops:        new(OpCounts),
	}
	d.ctl = nvmet.New(env, d, 0, nvmet.Config{
		FetchLatency: cmdLatency,
		ExecProc:     "ssd/exec",
	})
	if d.met = env.Metrics(); d.met != nil {
		d.spanDev = d.met.Device(cfg.Serial)
		comp := d.met.Component("ssd/" + cfg.Serial)
		d.mMedia = comp.Hist("media_ns")
		ops := d.Ops
		comp.CounterOf("read_ops", func() uint64 { return ops.Reads })
		comp.CounterOf("write_ops", func() uint64 { return ops.Writes })
		d.mReadBytes = comp.RateCounter("read_bytes")
		d.mWriteBytes = comp.RateCounter("write_bytes")
	}
	return d
}

// jitter spreads a nominal service time by the calibrated uniform factor,
// preserving its mean.
func (d *SSD) jitter(t sim.Time) sim.Time {
	f := 1 + jitterSpread*(2*d.jitterRng.Float64()-1)
	return sim.Time(float64(t) * f)
}

// Attach connects the SSD beneath the given port. The port's device must be
// this SSD (pcie.Connect(..., dev)).
func (d *SSD) Attach(port *pcie.Port) {
	d.port = port
	d.ctl.Attach(port)
}

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// FirmwareVersion returns the currently active firmware revision.
func (d *SSD) FirmwareVersion() string { return d.fwActive }

// Ready reports whether the controller is enabled, not resetting, and not
// surprise-removed.
func (d *SSD) Ready() bool { return d.ctl.Enabled() && !d.resetting && !d.gone() }

// gone reports whether the device has been surprise-removed by a
// fault.SSDDrop rule, latching the state on first observation. Once gone,
// the device behaves like an empty slot: doorbells are lost, SQE fetch
// stops, and completions never post.
func (d *SSD) gone() bool {
	if d.dropped {
		return true
	}
	if d.flt.Dropped(d.cfg.Serial, d.env.Now()) {
		d.dropped = true
		d.tr.Emit(d.env.Now(), trFaultSSDDrop, 0, 0, d.cfg.Serial)
	}
	return d.dropped
}

// Namespaces returns the active namespace IDs in ascending order.
func (d *SSD) Namespaces() []uint32 {
	var ids []uint32
	for id, ns := range d.nss {
		if ns != nil {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// ns returns the active namespace nsid, or nil: NSID 0, one never allocated
// and a deleted one all name nothing.
func (d *SSD) ns(nsid uint32) *namespace {
	if uint64(nsid) < uint64(len(d.nss)) {
		return d.nss[nsid]
	}
	return nil
}

// RegWrite implements pcie.RegDevice: the doorbell and config register
// surface of the controller.
func (d *SSD) RegWrite(_ pcie.FuncID, off uint64, val uint64) { d.ctl.RegWrite(off, val) }

// SinksReg implements pcie.RegSinker: CQ head doorbells change nothing.
func (d *SSD) SinksReg(_ pcie.FuncID, off uint64) bool { return nvmet.SinksReg(off) }

// MayFetch implements nvmet.Owner: a controller that is resetting, or a
// surprise-removed device, accepts no doorbells and fetches no SQEs.
func (d *SSD) MayFetch() bool { return !d.resetting && !d.gone() }

// MayPost implements nvmet.Owner: a removed device posts nothing; the
// command is lost.
func (d *SSD) MayPost() bool { return !d.gone() }

// FetchStall implements nvmet.Owner with the injected controller stall: the
// fetch engine of the queue freezes until the window ends (commands already
// executing are unaffected).
func (d *SSD) FetchStall(sqid uint16) sim.Time {
	if d.flt == nil {
		return 0
	}
	now := d.env.Now()
	end := d.flt.StallUntil(fault.SSDStall, d.cfg.Serial, now)
	if end <= now {
		return 0
	}
	d.tr.Emit(now, trFaultSSDStall, uint64(sqid), uint64(end-now), d.cfg.Serial)
	return end - now
}

// StartIO implements nvmet.Owner: the command's state machine (io.go) starts
// one queue hop from now. The hop is part of the timing model, not slack: the
// command's first step books payload DMAs on this SSD's link, and whatever is
// already queued for this instant — the controller's own next SQE fetch, a
// doorbell the host adaptor is about to post — books it first
// (TestCommandStartsOneHopAfterDispatch).
func (d *SSD) StartIO(sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	d.env.Schedule(0, d.getIO(sq, cmd, sqHead).startFn)
}

// ExecAdmin implements nvmet.Owner: one admin command, on its own process.
func (d *SSD) ExecAdmin(p *sim.Proc, sq *nvmet.SQ, cmd nvme.Command, sqHead uint32) {
	cpl := nvme.Completion{CID: cmd.CID, SQID: sq.ID, SQHead: uint16(sqHead)}
	cpl.DW0, cpl.Status = d.execAdmin(p, cmd)
	d.ctl.PostCQE(sq.CQID, cpl)
}
