package bmstore

import (
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// TestEventBudgetPerCommand pins the number of kernel events one QD-1 4 KiB
// command costs, from the tenant's doorbell to its next one, on a one-SSD
// rig in steady state. The numbers are the row counts of DESIGN §11's "One
// 4 KiB read, event by event" worksheet (BM-Store) and of the same list with
// the engine's rows taken out (native). A change that adds or removes an
// event on the data path must edit this test and that table together.
func TestEventBudgetPerCommand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSSDs = 1
	rigs := []struct {
		name        string
		direct      bool
		read, write uint64
	}{
		{"bmstore", false, 22, 22},
		{"native", true, 13, 13},
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			Scenario{Config: cfg, Direct: rig.direct, Body: func(tb *Testbed, p *sim.Proc) {
				var drv *host.Driver
				var err error
				if rig.direct {
					drv, err = tb.AttachNative(p, 0, host.DefaultDriverConfig())
				} else {
					if err = tb.Console.CreateNamespace(p, "vol", 1<<30, []int{0}); err == nil {
						err = tb.Console.Bind(p, "vol", 0)
					}
					if err == nil {
						drv, err = tb.AttachTenant(p, 0, host.DefaultDriverConfig())
					}
				}
				if err != nil {
					panic(err)
				}
				dev := drv.BlockDev(0)
				// One cycle is what a QD-1 fio worker does per I/O: the
				// command, then its completion CPU. Cycle boundaries fall
				// at a fixed offset from the doorbells, so a cycle holds
				// exactly one command's events.
				cycle := func(write bool, lba uint64) uint64 {
					e0 := tb.Env.Events()
					if write {
						err = dev.WriteAt(p, lba, 1, nil)
					} else {
						err = dev.ReadAt(p, lba, 1, nil)
					}
					if err != nil {
						panic(err)
					}
					p.Sleep(dev.PerIOCPU())
					return tb.Env.Events() - e0
				}
				for _, op := range []struct {
					write bool
					want  uint64
				}{{false, rig.read}, {true, rig.write}} {
					cycle(op.write, 0) // leave start-up behind
					for i := uint64(1); i <= 8; i++ {
						if got := cycle(op.write, i*8); got != op.want {
							t.Errorf("write=%v cycle %d: %d kernel events, budget %d", op.write, i, got, op.want)
						}
					}
				}
			}}.Run()
		})
	}
}
