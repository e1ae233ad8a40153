// Package bmstore is a simulation-backed reproduction of BM-Store (HPCA
// 2023): a transparent, hardware-assisted virtual local storage
// architecture for bare-metal clouds. The package wires complete testbeds
// — host, FPGA BMS-Engine, ARM BMS-Controller, NVMe SSDs, the
// out-of-band MCTP management path, and the software baselines (native
// disks, VFIO passthrough, SPDK vhost) — on a deterministic discrete-event
// simulator, so the paper's experiments run on a laptop.
//
// Quick start:
//
//	tb, err := bmstore.NewBMStoreTestbed(bmstore.DefaultConfig())
//	if err != nil { ... }
//	tb.Run(func(p *sim.Proc) {
//	    tb.Console.CreateNamespace(p, "vol0", 256<<30, []int{0})
//	    tb.Console.Bind(p, "vol0", 5)
//	    drv, _ := tb.AttachTenant(p, 5, host.DefaultDriverConfig())
//	    res := fio.Run(p, []host.BlockDevice{drv.BlockDev(0)}, spec)
//	})
package bmstore

import (
	"fmt"

	"bmstore/internal/controller"
	"bmstore/internal/crash"
	"bmstore/internal/engine"
	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// Config describes a testbed: the host, the SSD population, and (for
// BM-Store rigs) the engine and controller.
type Config struct {
	Seed   int64
	Kernel host.KernelProfile

	NumSSDs int
	// SSD returns the configuration of SSD i; nil means a P4510.
	SSD func(i int) ssd.Config
	// CaptureData materialises payload bytes end to end. Benchmarks turn
	// it off; integrity-sensitive work leaves it on.
	CaptureData bool

	Engine engine.Config

	// Timeline enables sampled request-timeline recording and worst-K tail
	// forensics (see internal/obs/timeline), set via WithTimeline. When no
	// metrics registry is supplied, the constructor builds one carrying the
	// recorder (reachable via Testbed.Metrics()); when one is supplied it
	// must itself have been built with timeline recording, or Validate
	// rejects the configuration instead of silently recording nothing.
	Timeline timeline.Config

	// CrashRecovery, when non-nil, arms the crash-recovery subsystem on
	// BM-Store rigs (see internal/crash and WithCrashRecovery): the
	// constructor builds a crash.Manager around the engine after bring-up
	// and exposes it as Testbed.Crash; AttachTenant registers every tenant
	// driver for post-recovery re-attach. Requires CaptureData.
	CrashRecovery *crash.Config

	// Set by WithTrace, WithMetrics and WithFaults; attached to the
	// simulation environment before any component is built, because
	// components cache those pointers at construction.
	tracer  *trace.Tracer
	metrics *obs.Registry
	faults  []fault.Rule
}

// Validate checks the configuration for the mistakes that otherwise
// surface as panics deep inside component constructors. Both testbed
// constructors call it; it is exported so sweep drivers can fail fast
// before spawning workers.
func (c *Config) Validate() error {
	if c.NumSSDs <= 0 {
		return fmt.Errorf("bmstore: config needs NumSSDs >= 1, got %d", c.NumSSDs)
	}
	if c.Kernel == (host.KernelProfile{}) {
		return fmt.Errorf("bmstore: config needs a kernel profile (e.g. host.CentOS)")
	}
	if fault.HasDataHazards(c.faults) && !c.CaptureData {
		return fmt.Errorf("bmstore: fault schedule contains data-hazard rules (media-corrupt/torn-write/misdirected-read) but Config.CaptureData is off — no payload bytes exist to damage or verify, so the rules would be inert; set CaptureData: true")
	}
	if c.CrashRecovery != nil && !c.CaptureData {
		return fmt.Errorf("bmstore: WithCrashRecovery needs Config.CaptureData — the journal redoes payload bytes at recovery, and without capture there is nothing to journal or verify")
	}
	if c.Timeline != (timeline.Config{}) && c.metrics != nil && c.metrics.Timeline() == nil {
		return fmt.Errorf("bmstore: WithTimeline combined with a metrics registry that records no timelines — build the registry with obs.Options.Timeline, or drop WithMetrics and let the constructor build one")
	}
	return nil
}

// DefaultConfig mirrors the paper's testbed (Table III): CentOS 7 with the
// 3.10 kernel, four 2 TB P4510s, a Gen3 x16 card slot.
func DefaultConfig() Config {
	return Config{
		Seed:        42,
		Kernel:      host.CentOS("3.10.0"),
		NumSSDs:     4,
		CaptureData: false,
		Engine:      engine.DefaultConfig(),
	}
}

// The testbed's fixed hardware (Table III).
const (
	hostMemBytes = 768 << 30
	// bmcLatency is the console <-> card network + BMC forwarding delay.
	bmcLatency = 80 * sim.Microsecond
	// hostLinkLanes/ssdLinkLanes size the PCIe links: the card's Gen3 x16
	// slot and each SSD's x4.
	hostLinkLanes = 16
	ssdLinkLanes  = 4
)

// Testbed is a fully wired rig.
type Testbed struct {
	Env  *sim.Env
	Host *host.Host

	// BM-Store components (nil on direct-attached rigs).
	Engine     *engine.Engine
	Controller *controller.Controller
	Console    *controller.Console
	EnginePort *pcie.Port

	// Crash is the crash-recovery manager, non-nil when the rig was built
	// with WithCrashRecovery.
	Crash *crash.Manager

	SSDs     []*ssd.SSD
	SSDPorts []*pcie.Port // set only on direct-attached rigs

	cfg Config
}

func (c *Config) ssdConfig(i int) ssd.Config {
	var sc ssd.Config
	if c.SSD != nil {
		sc = c.SSD(i)
	} else {
		sc = ssd.P4510(fmt.Sprintf("PHLJ%04d", i))
	}
	sc.CaptureData = c.CaptureData
	return sc
}

// newEnv builds the simulation environment shared by both testbed
// constructors: the observers (tracer, metrics, fault injector) must be
// attached before any component is constructed, because components cache
// those pointers at build time. It takes the config by pointer because
// WithTimeline without WithMetrics materialises the timeline-carrying
// registry here, and the testbed must remember it for Metrics().
func newEnv(cfg *Config) *sim.Env {
	if cfg.Timeline != (timeline.Config{}) && cfg.metrics == nil {
		cfg.metrics = obs.New(obs.Options{
			SeriesInterval: obs.DefaultSeriesInterval,
			Timeline:       cfg.Timeline,
		})
	}
	env := sim.NewEnv(cfg.Seed)
	env.SetTracer(cfg.tracer)
	env.SetMetrics(cfg.metrics)
	if len(cfg.faults) > 0 {
		env.SetFaults(fault.New(cfg.faults...))
	}
	return env
}

// newSSDLink builds one downstream (engine/host -> SSD) link, named so
// fault rules can target it.
func newSSDLink(env *sim.Env, name string) *pcie.Link {
	l := pcie.NewLink(env, ssdLinkLanes, 300*sim.Nanosecond)
	l.Name = name
	return l
}

// NewBMStoreTestbed builds host -> BMS-Engine -> SSDs with the
// BMS-Controller and a remote console on the out-of-band path, and runs
// the engine's backend bring-up to completion. Construction fails if the
// configuration is invalid or backend bring-up errors (which injected
// faults can now force). Observability and fault wiring composes through
// the variadic options (WithTrace, WithMetrics, WithTimeline, WithFaults,
// WithCrashRecovery), applied to a copy of cfg in order.
func NewBMStoreTestbed(cfg Config, opts ...Option) (*Testbed, error) {
	cfg = cfg.With(opts...)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := newEnv(&cfg)
	h := host.New(env, hostMemBytes, cfg.Kernel)
	eng := engine.New(env, cfg.Engine)

	tb := &Testbed{Env: env, Host: h, Engine: eng, cfg: cfg}

	// The console speaks MCTP through the BMC: model the network hop both
	// ways with bmcLatency.
	var console *controller.Console
	hostLink := pcie.NewLink(env, hostLinkLanes, 250*sim.Nanosecond)
	hostLink.Name = "host"
	port := h.Connect(hostLink, eng, func(raw []byte) {
		env.Schedule(bmcLatency, func() { console.Receive(raw) })
	})
	eng.AttachHost(port)
	tb.EnginePort = port

	for i := 0; i < cfg.NumSSDs; i++ {
		dev := ssd.New(env, cfg.ssdConfig(i))
		eng.AttachBackend(dev, newSSDLink(env, fmt.Sprintf("ssd%d", i)))
		tb.SSDs = append(tb.SSDs, dev)
	}

	tb.Controller = controller.New(env, eng)
	console = controller.NewConsole(env, controller.EID, func(raw []byte) {
		env.Schedule(bmcLatency, func() { port.VDMToDevice(raw) })
	})
	tb.Console = console

	var startErr error
	boot := env.Go("bmstore/start", func(p *sim.Proc) { startErr = eng.Start(p) })
	env.RunUntilEvent(boot.Done())
	if startErr != nil {
		return nil, fmt.Errorf("bmstore: engine start failed: %w", startErr)
	}
	if cfg.CrashRecovery != nil {
		tb.Crash = crash.New(env, eng, tb.SSDs, *cfg.CrashRecovery)
	}
	return tb, nil
}

// NewDirectTestbed builds host -> SSDs with no BM-Store card: the
// substrate for the native, VFIO and SPDK vhost baselines. It accepts the
// same functional options as NewBMStoreTestbed.
func NewDirectTestbed(cfg Config, opts ...Option) (*Testbed, error) {
	cfg = cfg.With(opts...)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := newEnv(&cfg)
	h := host.New(env, hostMemBytes, cfg.Kernel)
	tb := &Testbed{Env: env, Host: h, cfg: cfg}
	for i := 0; i < cfg.NumSSDs; i++ {
		dev := ssd.New(env, cfg.ssdConfig(i))
		port := h.Connect(newSSDLink(env, fmt.Sprintf("ssd%d", i)), dev, nil)
		dev.Attach(port)
		tb.SSDs = append(tb.SSDs, dev)
		tb.SSDPorts = append(tb.SSDPorts, port)
	}
	return tb, nil
}

// Metrics returns the rig's metrics registry: the one supplied via
// WithMetrics, or the registry the constructor built to carry WithTimeline's
// recorder. Nil when the rig runs without metrics.
func (tb *Testbed) Metrics() *obs.Registry { return tb.cfg.metrics }

// Run starts fn as a root simulation process, drives the simulation until
// fn returns (server processes like the controller's monitor keep ticking
// underneath), then aborts leftover processes.
func (tb *Testbed) Run(fn func(p *sim.Proc)) {
	main := tb.Env.Go("main", fn)
	tb.Env.RunUntilEvent(main.Done())
	tb.Env.Shutdown()
}

// RunWatched is Run under a liveness watchdog: if fn has not returned by
// virtual time horizon, or the rig deadlocks with fn still blocked, the run
// stops and the kernel's structured Diagnosis is returned instead of a
// hang. A nil return means fn completed. Chaos campaigns use this so an
// injected-fault combination that wedges the data path becomes a reported
// invariant violation, not a stuck test.
func (tb *Testbed) RunWatched(fn func(p *sim.Proc), horizon sim.Time) *sim.Diagnosis {
	main := tb.Env.Go("main", fn)
	_, diag := tb.Env.RunUntilEventWatched(main.Done(), horizon)
	tb.Env.Shutdown()
	return diag
}

// Go starts a concurrent simulation process (call within Run's function or
// before Run).
func (tb *Testbed) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return tb.Env.Go(name, fn)
}

// AttachTenant attaches a standard NVMe driver to BMS-Engine function fn —
// exactly what a bare-metal tenant's unmodified OS does. Pass a
// DriverConfig with VM set to run the driver inside a guest.
func (tb *Testbed) AttachTenant(p *sim.Proc, fn pcie.FuncID, dcfg host.DriverConfig) (*host.Driver, error) {
	if tb.Engine == nil {
		return nil, fmt.Errorf("bmstore: not a BM-Store testbed")
	}
	drv, err := host.AttachDriver(p, tb.Host, tb.EnginePort, fn, dcfg)
	if err == nil && tb.Crash != nil {
		tb.Crash.RegisterDriver(drv)
	}
	return drv, err
}

// AttachNative attaches the kernel driver straight to SSD i (the native
// baseline, or the host-side driver beneath VFIO/vhost). If the SSD has no
// namespace yet, one covering the whole disk is created.
func (tb *Testbed) AttachNative(p *sim.Proc, i int, dcfg host.DriverConfig) (*host.Driver, error) {
	if tb.SSDPorts == nil {
		return nil, fmt.Errorf("bmstore: not a direct-attached testbed")
	}
	if dcfg.CreateNSBlocks == 0 {
		dcfg.CreateNSBlocks = tb.SSDs[i].Config().CapacityBytes / ssd.BlockSize
	}
	return host.AttachDriver(p, tb.Host, tb.SSDPorts[i], 0, dcfg)
}

// NewSSD builds an extra SSD from sc on this testbed's environment
// (hot-plug replacements; pass ssd.P4510(serial) for a stock drive, or any
// other config — including one targeted by fault rules — for a faulty
// replacement). The testbed's CaptureData policy is applied, matching the
// drives built at construction. The link is named by the drive's serial
// for fault targeting.
func (tb *Testbed) NewSSD(sc ssd.Config) (*ssd.SSD, *pcie.Link) {
	sc.CaptureData = tb.cfg.CaptureData
	dev := ssd.New(tb.Env, sc)
	return dev, newSSDLink(tb.Env, sc.Serial)
}
