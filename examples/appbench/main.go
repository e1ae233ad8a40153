// Appbench example: the paper's application workloads — TPC-C and Sysbench
// on the minidb engine, YCSB on the kvstore engine — running in a VM on a
// BM-Store virtual disk, with real data flowing through the whole stack
// (engine LBA mapping, global-PRP DMA routing, SSD sparse store).
package main

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

func main() {
	cfg := bmstore.DefaultConfig()
	cfg.NumSSDs = 2
	cfg.CaptureData = true // applications store and verify real bytes
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		panic(err)
	}

	tb.Run(func(p *sim.Proc) {
		// Two virtual disks: one for MySQL-shaped work, one for RocksDB.
		if err := tb.Console.CreateNamespace(p, "mysql", 256<<30, []int{0}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "mysql", 0); err != nil {
			panic(err)
		}
		if err := tb.Console.CreateNamespace(p, "rocksdb", 256<<30, []int{1}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "rocksdb", 1); err != nil {
			panic(err)
		}

		vm := host.KVMGuest()
		dcfg := host.DefaultDriverConfig()
		dcfg.VM = &vm
		dbDrv, err := tb.AttachTenant(p, 0, dcfg)
		if err != nil {
			panic(err)
		}
		kvDrv, err := tb.AttachTenant(p, 1, dcfg)
		if err != nil {
			panic(err)
		}

		// --- MySQL/TPC-C ---
		db, err := minidb.Open(p, tb.Env, dbDrv.BlockDev(0), minidb.DefaultConfig())
		if err != nil {
			panic(err)
		}
		tcfg := tpcc.DefaultConfig()
		tcfg.Warehouses, tcfg.ItemsPerWarehouse, tcfg.CustomersPerDistrict = 4, 500, 30
		tcfg.Threads, tcfg.Duration = 16, 500*sim.Millisecond
		if err := tpcc.Load(p, db, tcfg); err != nil {
			panic(err)
		}
		tres := tpcc.Run(p, tb.Env, db, tcfg)
		fmt.Printf("TPC-C  : %6.0f tpmC (%d txns: %d NO / %d P / %d OS / %d D / %d SL), p99 %.2f ms\n",
			tres.TpmC(), tres.Total(), tres.NewOrders, tres.Payments,
			tres.OrderStatus, tres.Deliveries, tres.StockLevels,
			float64(tres.Lat.Percentile(0.99))/1e6)

		// --- MySQL/Sysbench ---
		scfg := sysbench.DefaultConfig()
		scfg.TableSize, scfg.Threads, scfg.Duration = 10000, 16, 500*sim.Millisecond
		if err := sysbench.Load(p, db, scfg); err != nil {
			panic(err)
		}
		sres := sysbench.Run(p, tb.Env, db, scfg)
		fmt.Printf("Sysbench: %6.0f QPS, %5.0f TPS, avg %.2f ms\n",
			sres.QPS(), sres.TPS(), sres.AvgLatencyMS())

		// --- RocksDB/YCSB ---
		kv, err := kvstore.Open(p, tb.Env, kvDrv.BlockDev(0), kvstore.DefaultConfig())
		if err != nil {
			panic(err)
		}
		ycfg := ycsb.Config{Records: 10000, ValueBytes: 400, Threads: 8, Duration: 500 * sim.Millisecond}
		if err := ycsb.Load(p, kv, ycfg); err != nil {
			panic(err)
		}
		for _, wl := range []ycsb.Workload{ycsb.WorkloadA(), ycsb.WorkloadB(), ycsb.WorkloadC()} {
			r := ycsb.Run(p, tb.Env, kv, wl, ycfg)
			fmt.Printf("YCSB-%s  : %6.0f ops/s, p99 %.0f us (flushes=%d compactions=%d)\n",
				wl.Name, r.Throughput(), float64(r.Lat.Percentile(0.99))/1e3,
				kv.Stats.Flushes, kv.Stats.Compactions)
		}

		// The operator's view of all that traffic, out of band.
		for fn := uint8(0); fn < 2; fn++ {
			ctr, _ := tb.Console.Counters(p, fn)
			fmt.Printf("monitor fn%d: reads=%v writes=%v\n", fn, ctr["ReadOps"], ctr["WriteOps"])
		}
	})
}
