package experiments

import (
	"fmt"

	"bmstore"
	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/tpcc"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// runApp runs fn on the one disk of a one-SSD rig of s, with data capture
// on: applications need real bytes.
func (s *Scheme) runApp(cfg bmstore.Config, fn func(p *sim.Proc, env *sim.Env, bd host.BlockDevice)) {
	cfg.NumSSDs = 1
	cfg.CaptureData = true
	s.run(cfg, []Disk{{Name: "app", Bytes: 1536 << 30, SSDs: []int{0}}}, host.DefaultDriverConfig(), 1, func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice) {
		fn(p, env, devs[0])
	})
}

// Fig13a reproduces the TPC-C comparison: transactions per scheme,
// normalised to VFIO (the paper's native baseline). One cell per scheme;
// normalisation happens after all cells complete.
func Fig13a(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig13a",
		Title:  "MySQL/TPC-C: normalized transactions per scheme",
		Header: []string{"scheme", "tpmC", "total txns", "normalized"},
		Notes:  []string{"paper: BM-Store near native; up to 13.4% more transactions than SPDK vhost"},
	}
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = max(2, 16/sc.AppLoadCut)
	tcfg.ItemsPerWarehouse /= sc.AppLoadCut
	tcfg.CustomersPerDistrict /= sc.AppLoadCut
	tcfg.Duration = sc.AppDuration
	results := make([]*tpcc.Result, len(guestSchemes))
	h.each(len(guestSchemes), func(i int) {
		s := guestSchemes[i]
		cfg := h.config(fmt.Sprintf("fig13a/%s", s.label), int64(1300+i))
		s.runApp(cfg, func(p *sim.Proc, env *sim.Env, bd host.BlockDevice) {
			// Buffer pool scaled with the dataset so reads miss at a
			// realistic rate (the paper's 100-warehouse database dwarfed
			// MySQL's pool; the comparison is storage-bound).
			dbc := minidb.DefaultConfig()
			dbc.PoolPages = 256
			db, err := minidb.Open(p, env, bd, dbc)
			if err != nil {
				panic(err)
			}
			if err := tpcc.Load(p, db, tcfg); err != nil {
				panic(err)
			}
			results[i] = tpcc.Run(p, env, db, tcfg)
		})
	})
	base := float64(results[0].Total())
	for i, s := range guestSchemes {
		res := results[i]
		tab.Rows = append(tab.Rows, []string{
			s.label, f0(res.TpmC()), fmt.Sprint(res.Total()),
			fmt.Sprintf("%.3f", float64(res.Total())/base),
		})
	}
	return tab
}

// Fig13bTable8 reproduces the Sysbench comparison: queries/transactions
// (Fig. 13b) and average latency (Table VIII).
func Fig13bTable8(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig13b+table8",
		Title:  "MySQL/Sysbench OLTP: throughput and latency per scheme",
		Header: []string{"scheme", "QPS", "TPS", "avg lat(ms)", "QPS normalized", "lat vs VFIO"},
		Notes:  []string{"paper: BM-Store -2.59% vs native, +2.6% latency; SPDK +11.2% latency, -8.1% queries"},
	}
	scfg := sysbench.DefaultConfig()
	scfg.TableSize /= sc.AppLoadCut
	scfg.Duration = sc.AppDuration
	results := make([]*sysbench.Result, len(guestSchemes))
	h.each(len(guestSchemes), func(i int) {
		s := guestSchemes[i]
		cfg := h.config(fmt.Sprintf("fig13b/%s", s.label), int64(1400+i))
		s.runApp(cfg, func(p *sim.Proc, env *sim.Env, bd host.BlockDevice) {
			dbc := minidb.DefaultConfig()
			dbc.PoolPages = 256
			db, err := minidb.Open(p, env, bd, dbc)
			if err != nil {
				panic(err)
			}
			if err := sysbench.Load(p, db, scfg); err != nil {
				panic(err)
			}
			results[i] = sysbench.Run(p, env, db, scfg)
		})
	})
	baseQPS, baseLat := results[0].QPS(), results[0].AvgLatencyMS()
	for i, s := range guestSchemes {
		res := results[i]
		tab.Rows = append(tab.Rows, []string{
			s.label, f0(res.QPS()), f0(res.TPS()), fmt.Sprintf("%.2f", res.AvgLatencyMS()),
			fmt.Sprintf("%.3f", res.QPS()/baseQPS),
			fmt.Sprintf("%+.1f%%", (res.AvgLatencyMS()/baseLat-1)*100),
		})
	}
	return tab
}

// Fig14 reproduces the mixed-workload experiment: four VMs on four SSDs —
// two running RocksDB/YCSB-A, two running MySQL/Sysbench — per scheme.
func Fig14(h *Harness) *Table {
	tab := &Table{
		ID:     "fig14",
		Title:  "Mixed workloads in 4 VMs: RocksDB/YCSB throughput and MySQL latency",
		Header: []string{"scheme", "ycsb VM1 (ops/s)", "ycsb VM2 (ops/s)", "mysql VM3 lat(ms)", "mysql VM4 lat(ms)"},
		Notes:  []string{"paper: BM-Store near native with consistent per-VM performance (isolation)"},
	}
	rows := make([][]string, len(guestSchemes))
	h.each(len(guestSchemes), func(i int) {
		s := guestSchemes[i]
		cfg := h.config(fmt.Sprintf("fig14/%s", s.label), int64(1500+10*i))
		rows[i] = fig14Row(cfg, h.Scale, s)
	})
	tab.Rows = rows
	return tab
}

func fig14Row(cfg bmstore.Config, sc Scale, scheme *Scheme) []string {
	cfg.NumSSDs = 4
	cfg.CaptureData = true

	ycfg := ycsb.DefaultYCSB()
	ycfg.Records /= sc.AppLoadCut
	ycfg.Duration = sc.AppDuration
	ycfg.Threads = 4
	scfg := sysbench.DefaultConfig()
	scfg.TableSize /= sc.AppLoadCut
	scfg.Duration = sc.AppDuration
	scfg.Threads = 8

	yOps := make([]float64, 2)
	mLat := make([]float64, 2)

	runAll := func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice) {
		var done []*sim.Event
		for i := 0; i < 2; i++ {
			i := i
			bd := devs[i]
			proc := env.Go(fmt.Sprintf("ycsbvm%d", i), func(vp *sim.Proc) {
				s, err := kvstore.Open(vp, env, bd, kvstore.DefaultConfig())
				if err != nil {
					panic(err)
				}
				c := ycfg
				c.Seed = fmt.Sprintf("%s-%d", scheme.label, i)
				if err := ycsb.Load(vp, s, c); err != nil {
					panic(err)
				}
				res := ycsb.Run(vp, env, s, ycsb.WorkloadA(), c)
				yOps[i] = res.Throughput()
			})
			done = append(done, proc.Done())
		}
		for i := 0; i < 2; i++ {
			i := i
			bd := devs[2+i]
			proc := env.Go(fmt.Sprintf("mysqlvm%d", i), func(vp *sim.Proc) {
				dbc := minidb.DefaultConfig()
				dbc.PoolPages = 256
				db, err := minidb.Open(vp, env, bd, dbc)
				if err != nil {
					panic(err)
				}
				c := scfg
				c.Seed = fmt.Sprintf("%s-%d", scheme.label, i)
				if err := sysbench.Load(vp, db, c); err != nil {
					panic(err)
				}
				res := sysbench.Run(vp, env, db, c)
				mLat[i] = res.AvgLatencyMS()
			})
			done = append(done, proc.Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
	}

	scheme.run(cfg, disksOnSSDs("vm", 4, 256<<30, 4), host.DefaultDriverConfig(), 1, runAll)
	return []string{scheme.label, f0(yOps[0]), f0(yOps[1]),
		fmt.Sprintf("%.2f", mLat[0]), fmt.Sprintf("%.2f", mLat[1])}
}
