// Package spdkvhost models the SPDK vhost baseline of the paper: a
// userspace target that dedicates host CPU cores to polling virtio queues
// and driving the SSDs with a polled-mode driver. Its performance envelope
// is calibrated against the paper's measurements: one vhost core sustains
// about 2.0 GB/s of 128K reads and 1.2 GB/s of writes (Fig. 9 / Table VII),
// ~290K small-I/O ops, and multi-core multi-SSD configurations lose
// efficiency to cross-core polling contention, which is why the paper's
// Fig. 1 needs at least eight cores to reach 80% of native on four SSDs.
package spdkvhost

import (
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// The calibrated vhost service model.
const (
	perIOCost      = 1500 * sim.Nanosecond // fixed descriptor/NVMe handling per I/O
	readNSPerByte  = 0.481                 // read-path per-byte core cost (ns/B)
	writeNSPerByte = 0.833                 // write-path per-byte core cost (ns/B)
	pollDelay      = 300 * sim.Nanosecond  // queue pickup latency
	// multiDevPenalty divides a core's service rate when it polls queues
	// of more than one backing SSD (cache and NUMA churn).
	multiDevPenalty = 0.61
	// crossCoreContention is the per-extra-core efficiency loss of a
	// multi-core target (shared ring and completion structures).
	crossCoreContention = 0.085

	// Guest-side virtio costs.
	guestKick     = 900 * sim.Nanosecond  // virtio kick (pio exit) on submission
	guestIRQ      = 1900 * sim.Nanosecond // interrupt injection on completion
	guestCPUPerIO = 7000 * sim.Nanosecond // guest virtio-blk CPU tax per I/O (overlapped)
)

// PolledKernel is the host-side profile the target drives SSDs with: SPDK's
// userspace polled-mode driver has no interrupt path and negligible
// per-I/O kernel cost (the vhost core model carries the real cost).
func PolledKernel() host.KernelProfile {
	return host.KernelProfile{
		OS: "SPDK PMD", Version: "21.01",
		SubmitLatency:   200 * sim.Nanosecond,
		CompleteLatency: 300 * sim.Nanosecond,
		PerIOCPU:        0,
	}
}

// Target is one vhost process with a set of dedicated polling cores.
type Target struct {
	env   *sim.Env
	cores []*vcore
	nDevs int
	eff   float64 // cross-core efficiency factor

	reqFree []*vreq // spent requests
}

type vcore struct {
	busy *sim.Pacer
	devs int
}

// NewTarget creates a vhost target with the given number of polling cores.
func NewTarget(env *sim.Env, cores int) *Target {
	if cores <= 0 {
		panic("spdkvhost: need at least one core")
	}
	t := &Target{env: env}
	t.eff = 1 / (1 + crossCoreContention*float64(cores-1))
	for i := 0; i < cores; i++ {
		t.cores = append(t.cores, &vcore{busy: sim.NewPacer(env, 1e9)})
	}
	return t
}

// Device is the virtio-blk device a guest sees, backed by one SSD
// namespace on the host side.
type Device struct {
	host.Parking
	t       *Target
	cores   []*vcore // cores assigned to this device's queues
	next    int
	backend host.BlockDevice
	guest   host.KernelProfile
}

// NewDevice exposes backend as a virtio-blk disk served by the given
// polling cores (indices into the target's core set). With no explicit
// cores, devices are placed round-robin, one core each — the paper's
// single-VM configuration ("one extra CPU core for the SPDK vhost layer").
func (t *Target) NewDevice(backend host.BlockDevice, guestKernel host.KernelProfile, coreIDs ...int) *Device {
	d := &Device{t: t, backend: backend, guest: guestKernel}
	d.Parking = host.NewParking(d)
	if len(coreIDs) == 0 {
		coreIDs = []int{t.nDevs % len(t.cores)}
	}
	for _, id := range coreIDs {
		c := t.cores[id%len(t.cores)]
		c.devs++
		d.cores = append(d.cores, c)
	}
	t.nDevs++
	return d
}

// coreCost books core CPU time for one I/O leg and returns how long until
// the core has done it.
func (d *Device) coreCost(bytes int, read bool) sim.Time {
	perByte := writeNSPerByte
	if read {
		perByte = readNSPerByte
	}
	// Each I/O passes the core twice (submit + complete legs); the fixed
	// descriptor cost splits across them.
	cost := float64(perIOCost)/2 + perByte*float64(bytes)
	c := d.cores[d.next%len(d.cores)]
	d.next++
	mult := 1.0 / d.t.eff
	if c.devs > 1 {
		mult /= multiDevPenalty
	}
	return c.busy.Reserve(int64(sim.Time(cost*mult))) - d.t.env.Now()
}

// BlockSize implements host.BlockDevice.
func (d *Device) BlockSize() int { return d.backend.BlockSize() }

// CapacityBlocks implements host.BlockDevice.
func (d *Device) CapacityBlocks() uint64 { return d.backend.CapacityBlocks() }

// Submit carries one I/O through the path as a chain of callbacks
// (host.BlockDevice). The guest builds descriptors and kicks; the target
// picks the request up after its poll delay, and the core translates and
// submits it (half the core work); the SSD does the I/O, and the core
// completes it (the other half) before injecting the guest interrupt. A
// flush costs the kick, the pickup and the interrupt, and no core time.
func (d *Device) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	t := d.t
	r := t.newReq()
	r.d, r.op, r.lba, r.blocks, r.buf, r.done = d, op, lba, blocks, buf, done
	r.n = int(blocks) * d.backend.BlockSize()
	r.stage = picked
	t.env.After(guestKick+pollDelay, r.step)
}

// stage is where a vhost request stands: what its next step does.
type stage uint8

const (
	picked      stage = iota // picked up: the core's submit leg (a flush goes straight on)
	translated               // submit leg done: hand the request to the SSD
	coreDone                 // complete leg done: inject the guest interrupt
	interrupted              // the guest has its completion
)

// vreq is one request through the target. The target recycles spent ones;
// step and backendDone are bound once, when a record is made.
type vreq struct {
	t           *Target
	d           *Device
	op          uint8
	lba         uint64
	blocks      uint32
	buf         []byte
	n           int
	done        func(host.IOOutcome)
	oc          host.IOOutcome
	stage       stage
	step        func()
	backendDone func(host.IOOutcome)
}

func (t *Target) newReq() *vreq {
	if n := len(t.reqFree); n > 0 {
		r := t.reqFree[n-1]
		t.reqFree = t.reqFree[:n-1]
		return r
	}
	r := &vreq{t: t}
	r.step, r.backendDone = r.onStep, r.onBackend
	return r
}

func (r *vreq) onStep() {
	d, env := r.d, r.t.env
	read := r.op == nvme.IORead
	switch r.stage {
	case picked:
		r.stage = translated
		if r.op == nvme.IOFlush {
			r.onStep()
			return
		}
		env.After(d.coreCost(r.n/2, read), r.step)
	case translated:
		d.backend.Submit(r.op, r.lba, r.blocks, r.buf, r.backendDone)
	case coreDone:
		r.stage = interrupted
		env.After(guestIRQ, r.step)
	case interrupted:
		done, oc := r.done, r.oc
		r.d, r.buf, r.done = nil, nil, nil
		r.t.reqFree = append(r.t.reqFree, r)
		done(oc)
	}
}

func (r *vreq) onBackend(oc host.IOOutcome) {
	r.oc = oc
	r.stage = coreDone
	if r.op == nvme.IOFlush {
		r.onStep()
		return
	}
	r.t.env.After(r.d.coreCost(r.n-r.n/2, r.op == nvme.IORead), r.step)
}

// PerIOCPU implements host.BlockDevice: the guest-side CPU tax (the vhost
// cores' cost is modelled directly above).
func (d *Device) PerIOCPU() sim.Time {
	return d.guest.PerIOCPU + guestCPUPerIO
}
