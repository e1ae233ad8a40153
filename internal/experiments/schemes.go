package experiments

import (
	"errors"
	"fmt"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/spdkvhost"
)

// A Scheme is one of the storage stacks the paper compares throughout §VI
// (Fig. 8-14, Tables V-VIII). Each is defined once, in the table below:
// `bmsctl fio -scheme`, every experiment that runs a stack, the fleet's
// hosts and the verify campaign (verify.go) build their rigs with Testbed
// and bring their disks up with Attach.
//
// Two rigs stay bespoke, each because it needs something Attach does not do:
// fig1Point sweeps the SPDK target's core count and places each device on
// cores itself; qosPoint creates and binds both its namespaces before it
// attaches either, and caps the neighbour in bytes per second. Brought up
// disk by disk, its table holds but its rigs' trace digest moves.
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
// Bytes striped over SSDs, capped at QoSIOPS when that is non-zero; on a
// direct scheme the one SSD in SSDs, with no cap. Names travel to the card
// as MCTP payload bytes, so they are part of a rig's timing.
type Disk struct {
	Name    string
	Bytes   uint64
	SSDs    []int
	QoSIOPS float64
}

// disksOnSSDs returns n disks named prefix0, prefix1, ... of bytes each,
// disk i on SSD i%ssds.
func disksOnSSDs(prefix string, n int, bytes uint64, ssds int) []Disk {
	disks := make([]Disk, n)
	for i := range disks {
		disks[i] = Disk{Name: fmt.Sprintf("%s%d", prefix, i), Bytes: bytes, SSDs: []int{i % ssds}}
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
// the rig's process p, and hands fn each disk as it comes up: its index, its
// driver, and jobs block devices — one per NVMe queue, or on SPDK vhost jobs
// references to the one virtio disk. Disk i is attached after fn has
// returned for disk i-1. A failed step ends the bring-up: Attach returns its
// error, which names the step and the disk, and attaches no further disk.
func (s *Scheme) Attach(p *sim.Proc, tb *bmstore.Testbed, disks []Disk, dcfg host.DriverConfig, jobs int, fn func(i int, drv *host.Driver, devs []host.BlockDevice)) error {
	if s.guest {
		vm := host.KVMGuest()
		dcfg.VM = &vm
	}
	var tgt *spdkvhost.Target
	if s.vhost {
		tgt = spdkvhost.NewTarget(tb.Env, len(disks))
	}
	for i, d := range disks {
		drv, err := s.attach(p, tb, i, d, dcfg)
		if err != nil {
			return err
		}
		devs := fioDevs(drv, jobs)
		if tgt != nil {
			vdev := tgt.NewDevice(devs[0], host.CentOS("3.10.0"))
			for j := range devs {
				devs[j] = vdev
			}
		}
		fn(i, drv, devs)
	}
	return nil
}

// attach brings disk d, the i-th, to the tenant and returns its driver: on a
// card scheme the console's create, bind to function i and QoS cap, then the
// tenant's driver; on a direct scheme the driver of d's one SSD.
func (s *Scheme) attach(p *sim.Proc, tb *bmstore.Testbed, i int, d Disk, dcfg host.DriverConfig) (*host.Driver, error) {
	fail := func(step string, err error) (*host.Driver, error) {
		return nil, fmt.Errorf("experiments: %s disk %q: %s: %w", s.name, d.Name, step, err)
	}
	if !s.card {
		switch {
		case d.QoSIOPS != 0:
			return fail("set QoS", errors.New("a direct disk has no QoS cap"))
		case len(d.SSDs) != 1:
			return fail("attach", fmt.Errorf("a direct disk is one SSD, it lists %d", len(d.SSDs)))
		}
		drv, err := tb.AttachNative(p, d.SSDs[0], dcfg)
		if err != nil {
			return fail("attach", err)
		}
		return drv, nil
	}
	if err := tb.Console.CreateNamespace(p, d.Name, d.Bytes, d.SSDs); err != nil {
		return fail("create namespace", err)
	}
	if err := tb.Console.Bind(p, d.Name, uint8(i)); err != nil {
		return fail(fmt.Sprintf("bind to function %d", i), err)
	}
	if d.QoSIOPS != 0 {
		if err := tb.Console.SetQoS(p, d.Name, d.QoSIOPS, 0); err != nil {
			return fail("set QoS", err)
		}
	}
	drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
	if err != nil {
		return fail("attach", err)
	}
	return drv, nil
}

// run builds s's rig for cfg and, in its process, attaches disks with dcfg
// and hands fn every disk's jobs block devices, in disk order.
func (s *Scheme) run(cfg bmstore.Config, disks []Disk, dcfg host.DriverConfig, jobs int, fn func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice)) {
	tb := mustTestbed(s.Testbed(cfg))
	tb.Run(func(p *sim.Proc) {
		var devs []host.BlockDevice
		must(s.Attach(p, tb, disks, dcfg, jobs, func(_ int, _ *host.Driver, d []host.BlockDevice) {
			devs = append(devs, d...)
		}))
		fn(p, tb.Env, devs)
	})
}

// fioVolume is the disk the single-disk fio comparisons run on.
var fioVolume = Disk{Name: "vol0", Bytes: 1536 << 30, SSDs: []int{0}}

// runFio runs spec on disk d of a one-SSD rig of s with the default driver.
func (s *Scheme) runFio(cfg bmstore.Config, d Disk, spec fio.Spec) (res *fio.Result) {
	cfg.NumSSDs = 1
	s.run(cfg, []Disk{d}, host.DefaultDriverConfig(), spec.NumJobs, func(p *sim.Proc, _ *sim.Env, devs []host.BlockDevice) {
		res = fio.Run(p, devs, spec)
	})
	return res
}
