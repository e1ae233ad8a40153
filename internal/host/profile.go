package host

import "bmstore/internal/sim"

// KernelProfile captures how a host kernel's block layer and NVMe driver
// tax each I/O. Two costs matter and they are distinct: in-path latency
// (submission and completion work between fio and the doorbell/MSI), and
// per-I/O CPU occupancy that caps throughput without appearing in a single
// I/O's measured latency (it overlaps with device time at queue depth).
type KernelProfile struct {
	OS      string
	Version string

	SubmitLatency   sim.Time // fio -> doorbell, in path
	CompleteLatency sim.Time // MSI -> fio wakeup, in path
	PerIOCPU        sim.Time // per-core CPU time per I/O (throughput cap)
}

// The CentOS 7 kernels of Table III/VI. The paper measures identical IOPS
// on 3.10/4.19/5.4 — the NVMe fast path barely changed for this workload.
func CentOS(version string) KernelProfile {
	return KernelProfile{
		OS:              "CentOS 7",
		Version:         version,
		SubmitLatency:   1100 * sim.Nanosecond,
		CompleteLatency: 2100 * sim.Nanosecond,
		PerIOCPU:        4700 * sim.Nanosecond,
	}
}

// Fedora returns the Fedora 33 profile of Table VI: slightly lower IOPS
// (distro kernels ship with full speculative-execution mitigations) and a
// leaner completion path.
func Fedora(version string) KernelProfile {
	return KernelProfile{
		OS:              "Fedora 33",
		Version:         version,
		SubmitLatency:   1100 * sim.Nanosecond,
		CompleteLatency: 2100 * sim.Nanosecond,
		PerIOCPU:        12600 * sim.Nanosecond,
	}
}

// VMProfile is the additional tax of running the driver inside a guest.
type VMProfile struct {
	// ExtraSubmit is added on the submission path (mapped BARs make
	// doorbell writes cheap; virtio kicks are costlier).
	ExtraSubmit sim.Time
	// ExtraComplete is the interrupt-injection cost on the completion path.
	ExtraComplete sim.Time
	// ExtraCPUPerIO is virtualisation CPU overhead per I/O that overlaps
	// with device time (exit handling, EOI, mapping) — it lowers the
	// per-vCPU IOPS ceiling without stretching a lone I/O.
	ExtraCPUPerIO sim.Time
}

// KVMGuest models the paper's VM configuration: 4 vCPUs, 4 GB, with
// device interrupts posted into the guest.
func KVMGuest() VMProfile {
	return VMProfile{
		ExtraSubmit:   400 * sim.Nanosecond,
		ExtraComplete: 2100 * sim.Nanosecond,
		ExtraCPUPerIO: 8200 * sim.Nanosecond,
	}
}
