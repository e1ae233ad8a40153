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
	"math/rand"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
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

type namespace struct {
	id       uint32
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
	fwStaged  []byte
	upgrades  int
	store     blockTable // device LBA -> stored prefix of its 4K block (CaptureData mode; store.go)
	spares    [][]byte   // whole arrays the store let go of, for staging slots and growing blocks (store.go)
	slab      []byte     // the uncut rest of the allocation short blocks are carved from (store.go)
	readyAt   sim.Time   // end of the current reset window
	onReady   []func()
	jitterRng *rand.Rand

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
}

// OpCounts are the I/O commands an SSD completed.
type OpCounts struct{ Reads, Writes uint64 }

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
		nss:        make([]*namespace, 1),
		totalLBAs:  cfg.CapacityBytes / BlockSize,
		dies:       sim.NewResource(env, cfg.Dies),
		readPacer:  sim.NewPacer(env, cfg.ReadBandwidth),
		writePacer: sim.NewPacer(env, cfg.WriteBandwidth),
		fwActive:   cfg.Firmware,
		jitterRng:  env.Rand("ssd/jitter/" + cfg.Serial),
		Ops:        new(OpCounts),
	}
	d.ctl = nvmet.New(env, d, 0, nvmet.Config{
		FetchLatency: cfg.CmdLatency,
		FetchProc:    "ssd/" + cfg.Serial + "/sq0",
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
		d.tr.Emit(d.env.Now(), "fault", "ssd-drop", 0, 0, d.cfg.Serial)
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
	d.tr.Emit(now, "fault", "ssd-stall", uint64(sqid), uint64(end-now), d.cfg.Serial)
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
