package bmstore

import (
	"sync"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// These scenarios cap the fault-injection subsystem: an SSD surprise-removed
// under live fio and replaced through the out-of-band console, and a firmware
// hot-upgrade racing an injected backend stall. In both, the host driver's
// timeout/abort/retry machinery must fully absorb the fault (fio panics on
// any I/O error), and the whole recovery must replay digest-identically.

// recoveryDriverConfig enables the driver's recovery machinery with windows
// sized for millisecond-scale test scenarios.
func recoveryDriverConfig() host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 3 * sim.Millisecond
	dcfg.MaxRetries = 10
	dcfg.RetryBackoff = 200 * sim.Microsecond
	return dcfg
}

// faultCfg is smallTestbed's config as a value (the scenario helpers rebuild
// the rig per run), with a short firmware window and the given fault rules.
func faultCfg(seed int64, numSSDs int, rules ...fault.Rule) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = numSSDs
	cfg.Engine.ChunkBytes = 1 << 24
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("TB" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		c.FWCommitMin = 10 * sim.Millisecond
		c.FWCommitMax = 15 * sim.Millisecond
		return c
	}
	return cfg.With(WithFaults(rules...))
}

// hotUnplugScenario: the namespace lives on SSD 1 ("TBB"), which is
// surprise-removed at 5 ms while two fio jobs hammer it; at 9 ms the
// operator replaces it over the console. If res is non-nil it receives the
// fio result of the (last) run.
func hotUnplugScenario(seed int64, res **fio.Result) Scenario {
	return Scenario{
		Config: faultCfg(seed, 2, fault.Rule{
			Point: fault.SSDDrop, Target: "TBB", At: int64(5 * sim.Millisecond),
		}),
		Body: func(tb *Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{1}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, recoveryDriverConfig())
			if err != nil {
				panic(err)
			}
			tb.Go("operator", func(op *sim.Proc) {
				op.Sleep(9 * sim.Millisecond)
				if err := tb.Console.HotPlugPrepare(op, 1); err != nil {
					panic(err)
				}
				rc := ssd.P4510("REPLACE01")
				rc.CapacityBytes = 1 << 30
				dev, link := tb.NewSSD(rc)
				if err := tb.Controller.PhysicalSwap(op, 1, dev, link); err != nil {
					panic(err)
				}
				if err := tb.Console.HotPlugComplete(op, 1); err != nil {
					panic(err)
				}
			})
			r := fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "unplug", Pattern: fio.RandRead, BlockSize: 4096,
				IODepth: 4, NumJobs: 2, Runtime: 25 * sim.Millisecond,
			})
			if res != nil {
				*res = r
			}
		},
	}
}

// hotUpgradeStallScenario: firmware hot-upgrade of the only SSD while fio
// runs, with the engine's backend submitter for that SSD wedged for 5 ms
// starting at 2 ms — overlapping the console's quiesce.
func hotUpgradeStallScenario(seed int64, res **fio.Result) Scenario {
	return Scenario{
		Config: faultCfg(seed, 1, fault.Rule{
			Point: fault.BackendSubmit, Target: "TBA",
			At: int64(2 * sim.Millisecond), Duration: int64(5 * sim.Millisecond),
		}),
		Body: func(tb *Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, recoveryDriverConfig())
			if err != nil {
				panic(err)
			}
			tb.Go("operator", func(op *sim.Proc) {
				op.Sleep(4 * sim.Millisecond)
				rep, err := tb.Console.HotUpgrade(op, 0, "VDV10200", 256)
				if err != nil {
					panic(err)
				}
				if rep.Firmware != "VDV10200" {
					panic("hot-upgrade reported firmware " + rep.Firmware)
				}
			})
			r := fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "upgrade", Pattern: fio.RandRW, BlockSize: 4096,
				IODepth: 4, NumJobs: 2, Runtime: 40 * sim.Millisecond,
			})
			if res != nil {
				*res = r
			}
		},
	}
}

// checkFaultDeterminism verifies a scenario's digest is stable across two
// fresh serial replays and across concurrent replays of both seeds — the
// per-rig injector state must not leak between simultaneous rigs.
func checkFaultDeterminism(t *testing.T, mk func(seed int64) Scenario) {
	t.Helper()
	seeds := []int64{42, 1234}
	baseline := make([]string, len(seeds))
	for i, seed := range seeds {
		first, second, ok := DeterminismCheck(mk(seed))
		if !ok {
			t.Fatalf("seed %d: serial replays diverge:\n  %s\n  %s", seed, first, second)
		}
		baseline[i] = first
	}
	if baseline[0] == baseline[1] {
		t.Fatalf("seeds %d and %d produced the same digest %s", seeds[0], seeds[1], baseline[0])
	}
	parallel := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			parallel[i], _ = mk(seed).TraceDigest()
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		if parallel[i] != baseline[i] {
			t.Errorf("seed %d: parallel digest %s != serial %s", seed, parallel[i], baseline[i])
		}
	}
}

func TestDeterminismFaultHotUnplug(t *testing.T) {
	checkFaultDeterminism(t, func(seed int64) Scenario {
		return hotUnplugScenario(seed, nil)
	})
}

func TestDeterminismFaultHotUpgradeStall(t *testing.T) {
	checkFaultDeterminism(t, func(seed int64) Scenario {
		return hotUpgradeStallScenario(seed, nil)
	})
}

// counterValue walks a metrics snapshot for one counter of one component.
func counterValue(t *testing.T, snap obs.Snapshot, comp, name string) uint64 {
	t.Helper()
	for _, c := range snap.Components {
		if c.Name != comp {
			continue
		}
		for _, ctr := range c.Counters {
			if ctr.Name == name {
				return ctr.Value
			}
		}
	}
	t.Fatalf("counter %s/%s not in snapshot", comp, name)
	return 0
}

func TestHotUnplugRecoveryVisibleInMetrics(t *testing.T) {
	var res *fio.Result
	s := hotUnplugScenario(42, &res)
	tb, err := NewBMStoreTestbed(s.Config, WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) {
		s.Body(tb, p)
		// The replacement is in service and visible out-of-band.
		inv, err := tb.Console.Inventory(p)
		if err != nil {
			t.Fatal(err)
		}
		if inv.Backends[1].Serial != "REPLACE01" || !inv.Backends[1].Ready {
			t.Fatalf("backend 1 after swap: %+v", inv.Backends[1])
		}
	})

	// fio.Run panics on any I/O error, so reaching here means the driver's
	// recovery absorbed the unplug; still, the workload must have made
	// progress on both sides of it.
	if res == nil || res.Read.Ops == 0 {
		t.Fatal("fio made no progress")
	}
	if got := tb.Env.Faults().Injected(); got == 0 {
		t.Fatal("no faults recorded as injected")
	}
	snap := tb.Metrics().Snapshot()
	for _, name := range []string{"timeouts", "aborts", "retries"} {
		if v := counterValue(t, snap, "host/driver0", name); v == 0 {
			t.Errorf("host/driver0 %s = 0, want > 0", name)
		}
	}
}

func TestHotUpgradeStallRecovery(t *testing.T) {
	var res *fio.Result
	s := hotUpgradeStallScenario(42, &res)
	tb, err := NewBMStoreTestbed(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) { s.Body(tb, p) })

	if res == nil || res.Read.Ops == 0 || res.Write.Ops == 0 {
		t.Fatal("fio made no progress")
	}
	if got := tb.Env.Faults().Injected(); got == 0 {
		t.Fatal("backend stall never observed")
	}
	if fw := tb.Engine.BackendFirmware(0); fw != "VDV10200" {
		t.Fatalf("firmware %q after upgrade", fw)
	}
}
