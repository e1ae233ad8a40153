// Package host models the bare-metal server side of the evaluation: host
// DRAM and root complex, kernel block-layer cost profiles, a standard NVMe
// driver that talks to any NVMe-compatible function over PCIe (a raw SSD or
// a BMS-Engine PF/VF — the driver cannot tell them apart, which is the
// transparency claim), optional VM overhead, and the BlockDevice interface
// the fio generator and the application models drive.
package host

import (
	"bmstore/internal/hostmem"
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
type BlockDevice interface {
	BlockSize() int
	CapacityBlocks() uint64
	// ReadAt/WriteAt block the calling process for the I/O's full latency.
	ReadAt(p *sim.Proc, lba uint64, blocks uint32, buf []byte) error
	WriteAt(p *sim.Proc, lba uint64, blocks uint32, data []byte) error
	Flush(p *sim.Proc) error
	// PerIOCPU is the CPU time a submitting thread burns per I/O without
	// it appearing in that I/O's latency; workload drivers account it
	// against their thread's CPU budget.
	PerIOCPU() sim.Time
}
