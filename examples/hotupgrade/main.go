// Hot-upgrade example: tenant I/O keeps flowing while the operator
// upgrades the backend SSD's firmware out of band (§IV-D / Table IX of
// the paper). The tenant sees one long-latency window — never an error,
// never a device disappearance.
package main

import (
	"fmt"

	"bmstore"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

func main() {
	cfg := bmstore.DefaultConfig()
	cfg.NumSSDs = 1
	// Shorten the device's firmware window so the example runs quickly;
	// the paper's P4510 takes 5-8 s.
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("DEMO0001")
		c.FWCommitMin, c.FWCommitMax = 1500*sim.Millisecond, 2000*sim.Millisecond
		return c
	}
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		panic(err)
	}

	tb.Run(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol0", 256<<30, []int{0}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "vol0", 0); err != nil {
			panic(err)
		}
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			panic(err)
		}

		// Tenant: continuous 4K reads, tracking the largest gap between
		// completions.
		var ops, errs int
		var maxGap sim.Time
		stop := tb.Env.NewEvent()
		tb.Go("tenant", func(tp *sim.Proc) {
			bd := drv.BlockDev(0)
			last := tp.Now()
			for !stop.Processed() {
				if e := bd.ReadAt(tp, uint64(ops%100000), 1, nil); e != nil {
					errs++
				}
				ops++
				if gap := tp.Now() - last; gap > maxGap {
					maxGap = gap
				}
				last = tp.Now()
			}
		})
		p.Sleep(500 * sim.Millisecond)

		fw, _ := tb.Console.Health(p, 0)
		fmt.Printf("before: firmware %s, tenant ops so far: %d\n", fw.Firmware, ops)

		rep, err := tb.Console.HotUpgrade(p, 0, "VDV10200", 512)
		if err != nil {
			panic(err)
		}
		p.Sleep(500 * sim.Millisecond)
		stop.Trigger(nil)

		fmt.Printf("after:  firmware %s\n", rep.Firmware)
		fmt.Printf("  total upgrade time : %.0f ms\n", rep.TotalMS)
		fmt.Printf("  SSD reset window   : %.0f ms\n", rep.SSDResetMS)
		fmt.Printf("  BM-Store processing: %.0f ms (the paper's ~100 ms)\n", rep.EngineProcMS)
		fmt.Printf("  tenant I/O pause   : %.0f ms (max completion gap %.0f ms)\n",
			rep.IOPauseMS, float64(maxGap)/1e6)
		fmt.Printf("  tenant ops=%d errors=%d  <- zero errors is the availability claim\n", ops, errs)

		fmt.Println("\ncontroller event log:")
		for _, e := range tb.Controller.Events {
			fmt.Println(" ", e)
		}
	})
}
