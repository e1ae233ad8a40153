package experiments

import (
	"fmt"
	"iter"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/spdkvhost"
)

// A Scheme is one of the storage stacks the paper compares throughout §VI
// (Fig. 8-14, Tables V-VIII). Each is defined once, in the table below:
// `bmsctl fio -scheme` and every experiment that runs a stack build its rig
// with Testbed and reach its disks with Attach.
//
// A few rigs stay bespoke, each because it needs something no scheme has:
// fig1Point sweeps the SPDK target's core count and places each device on
// cores itself; qosPoint, hotUpgradeRun, the fleet's host runner and the
// verify campaign (verify.go) put QoS or crash wiring between bind and
// attach, or report a failed step as an error instead of panicking.
type Scheme struct {
	name  string // `bmsctl fio -scheme`
	label string // the paper's name: table rows, rig names, RNG streams
	// card: a BM-Store card sits between host and SSDs (NewBMStoreTestbed),
	// and disk i is a namespace bound to function i and attached with
	// AttachTenant(i). Otherwise the testbed is NewDirectTestbed and a disk
	// is AttachNative on its one SSD.
	card bool
	// kernel is the host kernel the scheme needs; nil keeps the config's.
	kernel func() host.KernelProfile
	guest  bool // the tenant's driver runs in a KVM guest
	// vhost: the tenant reaches each direct disk through one SPDK vhost
	// target with a polling core per disk, devices placed round-robin.
	vhost bool
}

var (
	native    = &Scheme{name: "native", label: "native"}
	vfio      = &Scheme{name: "vfio", label: "VFIO", guest: true}
	bmStore   = &Scheme{name: "bmstore", label: "BM-Store", card: true}
	bmStoreVM = &Scheme{name: "bmstore-vm", label: "BM-Store", card: true, guest: true}
	spdkVhost = &Scheme{name: "spdk", label: "SPDK vhost", kernel: spdkvhost.PolledKernel, vhost: true}

	// schemes is the table, in `bmsctl fio -scheme` order.
	schemes = []*Scheme{native, vfio, bmStore, bmStoreVM, spdkVhost}
	// guestSchemes are the stacks a VM tenant is compared on, in the
	// paper's order (Fig. 9, 13, 14); VFIO is its native baseline.
	guestSchemes = []*Scheme{vfio, bmStoreVM, spdkVhost}
)

// SchemeNamed returns the scheme `bmsctl fio -scheme name` runs, or nil.
func SchemeNamed(name string) *Scheme {
	for _, s := range schemes {
		if s.name == name {
			return s
		}
	}
	return nil
}

// SchemeNames lists the schemes' names in table order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// Stripes reports whether a disk of s may span several SSDs: a BM-Store
// namespace stripes, a direct disk is one SSD.
func (s *Scheme) Stripes() bool { return s.card }

// A Disk is one tenant disk: on a BM-Store scheme the namespace Name of
// Bytes striped over SSDs, on a direct scheme the one SSD in SSDs. Names
// travel to the card as MCTP payload bytes, so they are part of a rig's
// timing.
type Disk struct {
	Name  string
	Bytes uint64
	SSDs  []int
}

// disksOnSSDs returns n disks named prefix0, prefix1, ... of bytes each,
// disk i on SSD i%ssds.
func disksOnSSDs(prefix string, n int, bytes uint64, ssds int) []Disk {
	disks := make([]Disk, n)
	for i := range disks {
		disks[i] = Disk{fmt.Sprintf("%s%d", prefix, i), bytes, []int{i % ssds}}
	}
	return disks
}

// Testbed builds s's testbed for cfg, with the host kernel s needs.
func (s *Scheme) Testbed(cfg bmstore.Config, opts ...bmstore.Option) (*bmstore.Testbed, error) {
	if s.kernel != nil {
		cfg.Kernel = s.kernel()
	}
	if s.card {
		return bmstore.NewBMStoreTestbed(cfg, opts...)
	}
	return bmstore.NewDirectTestbed(cfg, opts...)
}

// Attach brings disks to the tenant of tb, a testbed s built, from inside
// the rig's process p. Disk i is attached when the loop reaches it, after
// the body has run for disk i-1, and comes as jobs block devices: one per
// NVMe queue, or on SPDK vhost jobs references to the one virtio disk. A
// failed step panics; Run and RunWatched surface it at their caller.
func (s *Scheme) Attach(p *sim.Proc, tb *bmstore.Testbed, disks []Disk, dcfg host.DriverConfig, jobs int) iter.Seq2[int, []host.BlockDevice] {
	if s.guest {
		vm := host.KVMGuest()
		dcfg.VM = &vm
	}
	return func(yield func(int, []host.BlockDevice) bool) {
		var tgt *spdkvhost.Target
		if s.vhost {
			tgt = spdkvhost.NewTarget(tb.Env, spdkvhost.DefaultConfig(), len(disks))
		}
		for i, d := range disks {
			drv, err := s.attach(p, tb, i, d, dcfg)
			if err != nil {
				panic(err)
			}
			devs := fioDevs(drv, jobs)
			if tgt != nil {
				vdev := tgt.NewDevice(devs[0], host.CentOS("3.10.0"))
				for j := range devs {
					devs[j] = vdev
				}
			}
			if !yield(i, devs) {
				return
			}
		}
	}
}

// attach brings disk d, the i-th, to the tenant and returns its driver.
func (s *Scheme) attach(p *sim.Proc, tb *bmstore.Testbed, i int, d Disk, dcfg host.DriverConfig) (*host.Driver, error) {
	if !s.card {
		if len(d.SSDs) != 1 {
			return nil, fmt.Errorf("experiments: %s attaches one SSD per disk, disk %q lists %d", s.name, d.Name, len(d.SSDs))
		}
		return tb.AttachNative(p, d.SSDs[0], dcfg)
	}
	if err := tb.Console.CreateNamespace(p, d.Name, d.Bytes, d.SSDs); err != nil {
		return nil, err
	}
	if err := tb.Console.Bind(p, d.Name, uint8(i)); err != nil {
		return nil, err
	}
	return tb.AttachTenant(p, pcie.FuncID(i), dcfg)
}

// run builds s's rig for cfg and, in its process, attaches disks with dcfg
// and hands fn every disk's jobs block devices, in disk order.
func (s *Scheme) run(cfg bmstore.Config, disks []Disk, dcfg host.DriverConfig, jobs int, fn func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice)) {
	tb := mustTestbed(s.Testbed(cfg))
	tb.Run(func(p *sim.Proc) {
		var devs []host.BlockDevice
		for _, d := range s.Attach(p, tb, disks, dcfg, jobs) {
			devs = append(devs, d...)
		}
		fn(p, tb.Env, devs)
	})
}

// fioVolume is the disk the single-disk fio comparisons run on.
var fioVolume = Disk{"vol0", 1536 << 30, []int{0}}

// runFio runs spec on disk d of a one-SSD rig of s with the default driver.
func (s *Scheme) runFio(cfg bmstore.Config, d Disk, spec fio.Spec) (res *fio.Result) {
	cfg.NumSSDs = 1
	s.run(cfg, []Disk{d}, host.DefaultDriverConfig(), spec.NumJobs, func(p *sim.Proc, _ *sim.Env, devs []host.BlockDevice) {
		res = fio.Run(p, devs, spec)
	})
	return res
}
