package experiments

import (
	"fmt"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/stats"
)

// Table9Fig15 reproduces the availability experiment: fio running in a VM
// while the backend SSD's firmware hot-upgrades twice, for both random
// read and random write. It reports the Table IX timing breakdown and the
// Fig. 15 IOPS timeline (per-500ms bins), verifying zero I/O errors.
//
// Scale note: the SSD firmware activation window is a device property
// (5-8 s on the paper's P4510); the fast scale shrinks it to keep test
// runs quick, the full scale keeps the real window. The tenant workload is
// QoS-capped so the 20+ simulated seconds stay tractable; the pause shape
// is rate-independent.
func Table9Fig15(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "table9+fig15",
		Title:  "Firmware hot-upgrade under live I/O: timings and IOPS timeline",
		Header: []string{"pattern", "upgrade", "total(ms)", "ssd reset(ms)", "bm-store proc(ms)", "io pause(ms)", "errors"},
		Notes:  []string{"paper: total 6-9 s per upgrade, ~100 ms BM-Store processing, no tenant I/O errors"},
	}
	patterns := []fio.Pattern{fio.RandRead, fio.RandWrite}
	allRows := make([][][]string, len(patterns))
	allSeries := make([]*stats.Series, len(patterns))
	h.each(len(patterns), func(i int) {
		pattern := patterns[i]
		cfg := h.config(fmt.Sprintf("table9/%s", pattern), 1600+int64(pattern))
		allRows[i], allSeries[i] = hotUpgradeRun(cfg, sc, pattern)
	})
	for i, pattern := range patterns {
		tab.Rows = append(tab.Rows, allRows[i]...)
		// Compact Fig. 15 timeline: kIOPS per second of virtual time.
		line := fmt.Sprintf("fig15 %s kIOPS/bin:", pattern)
		for b := range allSeries[i].Bins {
			line += fmt.Sprintf(" %.1f", allSeries[i].Rate(b)/1000)
		}
		tab.Notes = append(tab.Notes, line)
	}
	return tab
}

// hotUpgradeRun drives one pattern across two hot-upgrades.
func hotUpgradeRun(cfg bmstore.Config, sc Scale, pattern fio.Pattern) ([][]string, *stats.Series) {
	cfg.NumSSDs = 1
	fwMin, fwMax := sc.FWCommitMin, sc.FWCommitMax
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510(fmt.Sprintf("HU%02d", i))
		c.FWCommitMin, c.FWCommitMax = fwMin, fwMax
		return c
	}
	tb := mustTestbed(bmStoreVM.Testbed(cfg))

	binNS := int64(500 * sim.Millisecond)
	series := stats.NewSeries(binNS)
	var rows [][]string
	tb.Run(func(p *sim.Proc) {
		// Cap the tenant rate so long wall-clock windows stay simulable.
		vol := Disk{Name: "vol", Bytes: 256 << 30, SSDs: []int{0}, QoSIOPS: 20000}
		var bd host.BlockDevice
		must(bmStoreVM.Attach(p, tb, []Disk{vol}, host.DefaultDriverConfig(), 1, func(_ int, _ *host.Driver, devs []host.BlockDevice) {
			bd = devs[0]
		}))

		// Tenant fio: 4K pattern, QD16 as sixteen depth-1 loops, running for
		// the whole window.
		var errors int
		tenants := fio.NewTenants(tb.Env, func(oc host.IOOutcome, _ sim.Time) {
			if oc.Status.IsError() {
				errors++
			}
			series.Add(tb.Env.Now(), 1)
		})
		for w := 0; w < 16; w++ {
			tenants.Start(bd, tb.Env.Rand(fmt.Sprintf("hu/%d", w)), pattern)
		}

		p.Sleep(2 * sim.Second)
		for u := 1; u <= 2; u++ {
			rep, err := tb.Console.HotUpgrade(p, 0, fmt.Sprintf("VDV102%02d", u), 512)
			if err != nil {
				panic(err)
			}
			rows = append(rows, []string{
				pattern.String(), fmt.Sprint(u),
				f0(rep.TotalMS), f0(rep.SSDResetMS), f0(rep.EngineProcMS), f0(rep.IOPauseMS),
				fmt.Sprint(errors),
			})
			p.Sleep(2 * sim.Second)
		}
		p.Sleep(sim.Second)
		tenants.Stop()
	})
	return rows, series
}
