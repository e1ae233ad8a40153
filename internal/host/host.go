// Package host models the bare-metal server side of the evaluation: host
// DRAM and root complex, kernel block-layer cost profiles, a standard NVMe
// driver that talks to any NVMe-compatible function over PCIe (a raw SSD or
// a BMS-Engine PF/VF — the driver cannot tell them apart, which is the
// transparency claim), optional VM overhead, and the BlockDevice interface
// the fio generator and the application models drive.
package host

import (
	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// Host is one physical server.
type Host struct {
	Env    *sim.Env
	Mem    *hostmem.Memory
	Root   *pcie.Root
	Kernel KernelProfile

	ports []*hostPort
	// reqFree recycles the drivers' I/O episode records (ioReq): one free
	// list per host, whichever of its drivers an I/O goes through.
	reqFree []*ioReq
	// timerFree recycles the drivers' CmdTimeout timers (cmdTimer).
	timerFree []*cmdTimer
}

// hostPort is one link below the host with the drivers attached to its
// functions, indexed by function: several single-function devices (SSDs) can
// coexist with a multi-function device (the BMS-Engine).
type hostPort struct {
	port    *pcie.Port
	drivers []*Driver
}

// Connect attaches a device below this host on the given link and wires
// interrupt routing to whatever drivers later attach to its functions.
// vdmUp, usually nil, receives vendor-defined messages the device sends
// upstream (the MCTP path used by the management examples).
func (h *Host) Connect(link *pcie.Link, dev pcie.RegDevice, vdmUp func([]byte)) *pcie.Port {
	hp := &hostPort{port: pcie.Connect(h.Env, link, h.Root, nil, vdmUp, dev)}
	hp.port.SetIRQ(func(fn pcie.FuncID, vec int) {
		// An interrupt from a function no driver is bound to goes nowhere.
		if int(fn) < len(hp.drivers) && hp.drivers[fn] != nil {
			hp.drivers[fn].IRQ(vec)
		}
	})
	h.ports = append(h.ports, hp)
	return hp.port
}

// register hooks the driver into the interrupt routing of its port.
func (h *Host) register(d *Driver) {
	for _, hp := range h.ports {
		if hp.port == d.port {
			for len(hp.drivers) <= int(d.fn) {
				hp.drivers = append(hp.drivers, nil)
			}
			hp.drivers[d.fn] = d
			return
		}
	}
}

// New returns a host with the given memory size and kernel.
func New(env *sim.Env, memBytes uint64, kernel KernelProfile) *Host {
	mem := hostmem.New(memBytes)
	return &Host{
		Env:    env,
		Mem:    mem,
		Root:   pcie.NewRoot(env, mem),
		Kernel: kernel,
	}
}

// BlockDevice is the host-visible disk abstraction workloads drive. A nil
// buffer skips data movement into the model's sparse memory while still
// paying full transfer time — benchmarks use it, applications pass data.
//
// Submit is the data path. A device implements it (with BlockSize,
// CapacityBlocks and PerIOCPU) and embeds a Parking for the process API.
type BlockDevice interface {
	BlockSize() int
	CapacityBlocks() uint64
	// Submit starts one I/O — op is nvme.IORead, IOWrite or IOFlush (lba,
	// blocks and buf unused) — and returns without blocking. done runs
	// exactly once, with the episode's outcome after any retries, at the
	// instant the I/O's full latency has passed: in scheduler context, or
	// inside a recovery process the device started — or inside Submit, on a
	// device that takes no time. done may submit the next I/O. buf, when
	// non-nil, is exactly the transfer's length and must not change until
	// done runs. An argument the device cannot take (an oversized transfer, a
	// buffer of the wrong length) panics inside Submit.
	Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(IOOutcome))
	// ReadAt/WriteAt/Flush block the calling process for the I/O's full
	// latency (Parking): one Submit, and at most one park.
	ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error
	WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error
	Flush(p *sim.Proc) error
	// PerIOCPU is the CPU time a submitting thread burns per I/O without
	// it appearing in that I/O's latency; workload drivers account it
	// against their thread's CPU budget.
	PerIOCPU() sim.Time
}

// Parking is the process API of a BlockDevice, written once over Submit:
// every device embeds the Parking NewParking binds to it, for ReadAt, WriteAt
// and Flush, and a caller that needs an I/O's whole outcome parks on any
// device with IO (the zero value is ready for that). A process that calls
// them submits the I/O and parks once, resuming at the instant done runs —
// where a process blocked through the whole I/O would resume — so a process
// caller costs one coroutine resume per I/O; an I/O whose done runs inside
// Submit returns without parking or firing an event. A failed I/O's error
// is its StatusError. Parking recycles its waits, so a steady stream of I/Os
// allocates nothing.
type Parking struct {
	dev  BlockDevice // where ReadAt, WriteAt and Flush go
	free []*parked
}

// NewParking returns the process API of dev, for dev to embed.
func NewParking(dev BlockDevice) Parking { return Parking{dev: dev} }

// parked is one process's wait for one Submit.
type parked struct {
	wake  *sim.Event
	oc    IOOutcome
	ended bool
	done  func(IOOutcome) // end, bound once
}

// ReadAt reads blocks blocks at lba into buf.
func (pk *Parking) ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error {
	return pk.IO(p, pk.dev, nvme.IORead, lba, blocks, buf).Err()
}

// WriteAt writes data, blocks blocks long, at lba.
func (pk *Parking) WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error {
	return pk.IO(p, pk.dev, nvme.IOWrite, lba, blocks, data).Err()
}

// Flush flushes the device's volatile write cache.
func (pk *Parking) Flush(p *sim.Proc) error {
	return pk.IO(p, pk.dev, nvme.IOFlush, 0, 0, nil).Err()
}

// IO submits one I/O on dev and parks p until it ends, for a caller that
// needs the whole outcome (fio.RunVerify tells failed writes from in-doubt
// ones by it).
func (pk *Parking) IO(p *sim.Proc, dev BlockDevice, op uint8, lba uint64, blocks uint32, buf []byte) IOOutcome {
	var w *parked
	if n := len(pk.free); n > 0 {
		w = pk.free[n-1]
		pk.free = pk.free[:n-1]
	} else {
		w = &parked{}
		w.done = w.end
	}
	dev.Submit(op, lba, blocks, buf, w.done)
	if !w.ended {
		w.wake = p.Env().PooledEvent()
		p.Wait(w.wake)
	}
	oc := w.oc
	w.ended = false
	pk.free = append(pk.free, w)
	return oc
}

// end takes the outcome and resumes the parked process in place.
func (w *parked) end(oc IOOutcome) {
	w.oc, w.ended = oc, true
	if ev := w.wake; ev != nil {
		w.wake = nil
		ev.Fire(nil)
	}
}
