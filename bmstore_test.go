package bmstore

import (
	"strings"
	"testing"

	"bmstore/internal/controller"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/mctp"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

func smallTestbed(t *testing.T, numSSDs int, opts ...Option) *Testbed {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumSSDs = numSSDs
	cfg.Engine.ChunkBytes = 1 << 24 // 16 MB chunks for small tests
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("TB" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		return c
	}
	cfg.CaptureData = true
	tb, err := NewBMStoreTestbed(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestOutOfBandProvisioningAndIO(t *testing.T) {
	tb := smallTestbed(t, 2)
	tb.Run(func(p *sim.Proc) {
		// The operator provisions entirely out of band.
		if err := tb.Console.CreateNamespace(p, "vol0", 64<<20, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol0", 3); err != nil {
			t.Fatal(err)
		}
		inv, err := tb.Console.Inventory(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(inv.Backends) != 2 || len(inv.Namespaces) != 1 {
			t.Fatalf("inventory %+v", inv)
		}
		if inv.Namespaces[0].BoundFn == nil || *inv.Namespaces[0].BoundFn != 3 {
			t.Fatalf("binding %+v", inv.Namespaces[0])
		}

		// The tenant sees a standard NVMe disk and does I/O on it.
		drv, err := tb.AttachTenant(p, 3, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := drv.Identity().Model; !strings.Contains(got, "BM-Store") {
			t.Fatalf("tenant sees model %q", got)
		}
		bd := drv.BlockDev(0)
		data := []byte("out-of-band provisioned, in-band used")
		buf := make([]byte, bd.BlockSize())
		copy(buf, data)
		if err := bd.WriteAt(p, 10, 1, buf); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, bd.BlockSize())
		if err := bd.ReadAt(p, 10, 1, got); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(got), string(data)) {
			t.Fatal("data mismatch through full BM-Store testbed")
		}

		// Counters made it to the monitor plane.
		ctr, err := tb.Console.Counters(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ctr["WriteOps"].(float64) != 1 || ctr["ReadOps"].(float64) != 1 {
			t.Fatalf("counters %+v", ctr)
		}
	})
}

func TestConsoleErrorPaths(t *testing.T) {
	tb := smallTestbed(t, 1)
	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.Bind(p, "ghost", 0); err == nil {
			t.Fatal("bind of missing namespace succeeded")
		}
		if err := tb.Console.CreateNamespace(p, "v", 16<<20, []int{7}); err == nil {
			t.Fatal("create on missing SSD succeeded")
		}
		if err := tb.Console.CreateNamespace(p, "v", 16<<20, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.CreateNamespace(p, "v", 16<<20, []int{0}); err == nil {
			t.Fatal("duplicate namespace name accepted")
		}
		if _, err := tb.Console.Counters(p, 9); err == nil {
			t.Fatal("counters of unbound function succeeded")
		}
		if err := tb.Console.Request(p, mctp.MIVendorDestroyNS, controller.NameReq{Name: "v"}, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnknownAndMalformedMIRequests(t *testing.T) {
	tb := smallTestbed(t, 1)
	tb.Run(func(p *sim.Proc) {
		// Unknown opcode: the controller answers with invalid-opcode, the
		// console surfaces it as an error — no hang, no crash.
		err := tb.Console.Request(p, 0xEE, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "status 0x3") {
			t.Fatalf("unknown opcode: %v", err)
		}
		// Structurally valid JSON with missing fields: rejected cleanly.
		err = tb.Console.Request(p, mctp.MIVendorCreateNS, controller.FnReq{Fn: 1}, nil)
		if err == nil {
			t.Fatal("zero-size create accepted")
		}
		// The channel still works afterwards.
		if _, verr := tb.Console.Version(p); verr != nil {
			t.Fatalf("channel wedged: %v", verr)
		}
	})
}

func TestStandardNVMeMICommands(t *testing.T) {
	tb := smallTestbed(t, 2)
	tb.Run(func(p *sim.Proc) {
		ds, err := tb.Console.ReadDataStructure(p, controller.DSSubsystem)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Subsystem == nil || ds.Subsystem.Backends != 2 || ds.Subsystem.Controllers != 128 {
			t.Fatalf("subsystem %+v", ds.Subsystem)
		}
		if ds, err = tb.Console.ReadDataStructure(p, controller.DSPorts); err != nil || len(ds.Ports) == 0 {
			t.Fatalf("ports %+v err=%v", ds.Ports, err)
		}
		// No controllers active before binding; one after.
		ds, _ = tb.Console.ReadDataStructure(p, controller.DSControllers)
		if len(ds.ActiveControllers) != 0 {
			t.Fatalf("active %v before binding", ds.ActiveControllers)
		}
		tb.Console.CreateNamespace(p, "v", 16<<20, []int{0})
		tb.Console.Bind(p, "v", 7)
		ds, _ = tb.Console.ReadDataStructure(p, controller.DSControllers)
		if len(ds.ActiveControllers) != 1 || ds.ActiveControllers[0] != 7 {
			t.Fatalf("active %v after binding", ds.ActiveControllers)
		}
		if _, err := tb.Console.ReadDataStructure(p, 9); err == nil {
			t.Fatal("bad data structure type accepted")
		}

		h, err := tb.Console.SubsystemHealth(p)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Healthy || h.CompositeTempC < 20 {
			t.Fatalf("subsystem health %+v", h)
		}
		// Quiesce one backend: the poll reports a degraded drive.
		tb.Engine.QuiesceBackend(p, 1)
		h, _ = tb.Console.SubsystemHealth(p)
		if h.Healthy || h.DegradedDrives != 1 {
			t.Fatalf("degraded health %+v", h)
		}
		tb.Engine.ResumeBackend(p, 1)
	})
}

func TestConsoleVersionAndHealth(t *testing.T) {
	tb := smallTestbed(t, 1)
	tb.Run(func(p *sim.Proc) {
		v, err := tb.Console.Version(p)
		if err != nil {
			t.Fatal(err)
		}
		if v.Controller != controller.Version || v.Engine == "" {
			t.Fatalf("version %+v", v)
		}
		h, err := tb.Console.Health(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.TempC < 20 || h.TempC > 80 || h.Firmware == "" {
			t.Fatalf("health %+v", h)
		}
		if _, err := tb.Console.Health(p, 5); err == nil {
			t.Fatal("health of missing SSD succeeded")
		}
	})
}

// The headline availability result: firmware hot-upgrade under live I/O,
// zero errors, pause bounded by the activation window (Table IX, Fig. 15).
func TestHotUpgradeUnderLoadNoErrors(t *testing.T) {
	tb := smallTestbed(t, 1)
	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", 128<<20, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			t.Fatal(err)
		}
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Tenant I/O running across the upgrade.
		var errs, ops int
		var maxGapMS float64
		stop := tb.Env.NewEvent()
		tb.Go("tenant", func(tp *sim.Proc) {
			bd := drv.BlockDev(0)
			last := tp.Now()
			for !stop.Processed() {
				if err := bd.ReadAt(tp, uint64(ops%1000), 1, nil); err != nil {
					errs++
				}
				ops++
				if gap := float64(tp.Now()-last) / 1e6; gap > maxGapMS {
					maxGapMS = gap
				}
				last = tp.Now()
			}
		})
		p.Sleep(50 * sim.Millisecond)

		rep, err := tb.Console.HotUpgrade(p, 0, "VDV10200", 512)
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(50 * sim.Millisecond)
		stop.Trigger(nil)

		if errs != 0 {
			t.Fatalf("%d tenant I/O errors during hot-upgrade", errs)
		}
		if rep.Firmware != "VDV10200" {
			t.Fatalf("firmware %q", rep.Firmware)
		}
		// Total 6-9s (5-8s commit + download + processing); engine's own
		// processing ~100ms; I/O pause within the 30s host timeout.
		if rep.TotalMS < 5000 || rep.TotalMS > 9500 {
			t.Fatalf("total %v ms, want ~6000-9000", rep.TotalMS)
		}
		if rep.EngineProcMS < 80 || rep.EngineProcMS > 250 {
			t.Fatalf("engine processing %v ms, want ~100", rep.EngineProcMS)
		}
		if rep.IOPauseMS > 30000 {
			t.Fatalf("I/O pause %v ms exceeds host timeout", rep.IOPauseMS)
		}
		// The tenant experienced the pause as one long-latency I/O.
		if maxGapMS < rep.SSDResetMS*0.9 {
			t.Fatalf("tenant max gap %.0fms vs reset %.0fms: pause invisible?", maxGapMS, rep.SSDResetMS)
		}
		if fw := tb.SSDs[0].FirmwareVersion(); fw != "VDV10200" {
			t.Fatalf("device runs firmware %q after the upgrade", fw)
		}
	})
}

func TestHotPlugViaConsole(t *testing.T) {
	tb := smallTestbed(t, 2)
	tb.Run(func(p *sim.Proc) {
		tb.Console.CreateNamespace(p, "vol", 64<<20, []int{1})
		tb.Console.Bind(p, "vol", 0)
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		bd := drv.BlockDev(0)
		if err := bd.WriteAt(p, 0, 1, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}

		if err := tb.Console.HotPlugPrepare(p, 1); err != nil {
			t.Fatal(err)
		}
		newDev, link := tb.NewSSD(ssd.P4510("REPLACEMENT"))
		if err := tb.Controller.PhysicalSwap(p, 1, newDev, link); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.HotPlugComplete(p, 1); err != nil {
			t.Fatal(err)
		}

		// The tenant's logical drive never disappeared; I/O works with no
		// re-enumeration, against the fresh device.
		if err := bd.ReadAt(p, 0, 1, nil); err != nil {
			t.Fatalf("post-swap read: %v", err)
		}
		inv, _ := tb.Console.Inventory(p)
		if inv.Backends[1].Serial != "REPLACEMENT" || !inv.Backends[1].Ready {
			t.Fatalf("inventory after swap %+v", inv.Backends[1])
		}
	})
}

func TestMonitorSeesTenantTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second monitor window")
	}
	tb := smallTestbed(t, 1)
	tb.Run(func(p *sim.Proc) {
		tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0})
		tb.Console.Bind(p, "vol", 2)
		drv, err := tb.AttachTenant(p, 2, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := fio.Run(p, []host.BlockDevice{drv.BlockDev(0)}, fio.Spec{
			Name: "mon", Pattern: fio.RandRead, BlockSize: 4096,
			IODepth: 16, NumJobs: 2, Runtime: 500 * sim.Millisecond,
		})
		if res.IOPS() == 0 {
			t.Fatal("no I/O")
		}
		var samples []controller.MonitorSample
		if err := tb.Console.Request(p, mctp.MIVendorMonitorRead, controller.FnReq{Fn: 2}, &samples); err != nil {
			t.Fatal(err)
		}
		if len(samples) < 3 {
			t.Fatalf("%d monitor samples", len(samples))
		}
		var peak float64
		for _, s := range samples {
			if s.ReadIOPS > peak {
				peak = s.ReadIOPS
			}
		}
		// The monitor's peak rate should be in the ballpark of what fio saw.
		if peak < res.IOPS()*0.5 || peak > res.IOPS()*2 {
			t.Fatalf("monitor peak %.0f vs fio %.0f", peak, res.IOPS())
		}
	})
}

func TestBMStoreVsNativeLatencyDelta(t *testing.T) {
	// The transparency+performance headline: BM-Store adds ~3us.
	runCase := func(bm bool) float64 {
		cfg := DefaultConfig()
		cfg.NumSSDs = 1
		spec := fio.Spec{Name: "rand-r-1", Pattern: fio.RandRead,
			BlockSize: 4096, IODepth: 1, NumJobs: 4,
			Ramp: sim.Millisecond, Runtime: 20 * sim.Millisecond}
		var res *fio.Result
		if bm {
			tb, err := NewBMStoreTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run(func(p *sim.Proc) {
				tb.Console.CreateNamespace(p, "v", 256<<30, []int{0})
				tb.Console.Bind(p, "v", 0)
				drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
				if err != nil {
					t.Fatal(err)
				}
				devs := []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1), drv.BlockDev(2), drv.BlockDev(3)}
				res = fio.Run(p, devs, spec)
			})
		} else {
			tb, err := NewDirectTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run(func(p *sim.Proc) {
				drv, err := tb.AttachNative(p, 0, host.DefaultDriverConfig())
				if err != nil {
					t.Fatal(err)
				}
				devs := []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1), drv.BlockDev(2), drv.BlockDev(3)}
				res = fio.Run(p, devs, spec)
			})
		}
		return res.AvgLatencyUS()
	}
	native := runCase(false)
	bms := runCase(true)
	delta := bms - native
	if delta < 1.5 || delta > 5.5 {
		t.Fatalf("BM-Store adds %.2fus over native %.2fus, paper ~3us", delta, native)
	}
}
