package bmstore_test

import (
	"fmt"
	"testing"

	"bmstore"
	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/experiments"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// BenchmarkAppsMixedRound prices the application tier the way Fig. 14 and
// the repo benchmark's apps-mixed workload run it: a kvstore + YCSB-A guest
// and a minidb + sysbench guest, each a KVM tenant of a BM-Store rig with
// payload capture on, at the fast sweep's dataset cut. The load is untimed;
// one benchmark op is one 20 ms round of both guests together.
//
// Its allocs/op is pinned by make bench-gate: the 0-allocs ceilings of the
// BenchmarkIOPath family cover the block path below the applications, and
// this one covers the engines and load generators above it — page decodes,
// checkpoint snapshots, WAL batches, table reads, keys and values.
func BenchmarkAppsMixedRound(b *testing.B) {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = 7
	cfg.NumSSDs = 2
	cfg.CaptureData = true
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cut := experiments.Fast().AppLoadCut
	ycfg := ycsb.DefaultYCSB()
	ycfg.Records /= cut
	ycfg.Threads = 4
	ycfg.Duration = 20 * sim.Millisecond
	scfg := sysbench.DefaultConfig()
	scfg.TableSize /= cut
	scfg.Threads = 8
	scfg.Duration = 20 * sim.Millisecond

	b.ReportAllocs()
	tb.Run(func(p *sim.Proc) {
		env := p.Env()
		vm := host.KVMGuest()
		var devs [2]host.BlockDevice
		for i := range devs {
			name := fmt.Sprintf("vm%d", i)
			if err := tb.Console.CreateNamespace(p, name, 256<<30, []int{i}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, name, uint8(i)); err != nil {
				panic(err)
			}
			dcfg := host.DefaultDriverConfig()
			dcfg.VM = &vm
			drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
			if err != nil {
				panic(err)
			}
			devs[i] = drv.BlockDev(0)
		}
		store, err := kvstore.Open(p, env, devs[0], kvstore.DefaultConfig())
		if err != nil {
			panic(err)
		}
		if err := ycsb.Load(p, store, ycfg); err != nil {
			panic(err)
		}
		dbc := minidb.DefaultConfig()
		dbc.PoolPages = 256
		db, err := minidb.Open(p, env, devs[1], dbc)
		if err != nil {
			panic(err)
		}
		if err := sysbench.Load(p, db, scfg); err != nil {
			panic(err)
		}

		var ops, txns uint64
		round := func(i int) {
			yc, sc := ycfg, scfg
			yc.Seed = fmt.Sprintf("round%d", i)
			sc.Seed = yc.Seed
			mysql := env.Go("bench/mysql", func(vp *sim.Proc) {
				txns += sysbench.Run(vp, env, db, sc).Transactions
			})
			ops += ycsb.Run(p, env, store, ycsb.WorkloadA(), yc).Ops
			p.Wait(mysql.Done())
		}
		round(-1) // warm: pools, WAL buffers and the first checkpoint
		ops, txns = 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(ops)/float64(b.N), "ycsb-ops/op")
		b.ReportMetric(float64(txns)/float64(b.N), "txns/op")
	})
}
