package ssd_test

import (
	"fmt"
	"runtime"
	"testing"

	"bmstore"
	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestStoreKeepsWhatItHolds loads kvstore + YCSB on one SSD and minidb +
// sysbench on the other, the two applications of Fig. 14 at a cut dataset,
// runs each for a while, and weighs what each SSD's block store keeps alive:
// the heap its table frees when dropped may exceed the block rule's footprint
// (granule-rounded used prefixes, whole blocks where those pass half a block)
// plus the table's leaves by no more than 1/32 of the footprint — the slabs'
// cut-off tails, where a short block did not fit in what was left of one. The
// same blocks kept whole, as the store kept them before it stored prefixes,
// must fail that bound.
func TestStoreKeepsWhatItHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two databases")
	}
	cfg := bmstore.DefaultConfig()
	cfg.Seed = 7
	cfg.NumSSDs = 2
	cfg.CaptureData = true
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ycfg := ycsb.DefaultYCSB()
	ycfg.Records /= 8
	ycfg.Threads = 4
	ycfg.Duration = 50 * sim.Millisecond
	scfg := sysbench.DefaultConfig()
	scfg.TableSize /= 8
	scfg.Threads = 8
	scfg.Duration = 50 * sim.Millisecond
	tb.Run(func(p *sim.Proc) {
		env := p.Env()
		vm := host.KVMGuest()
		var devs [2]host.BlockDevice
		for i := range devs {
			name := fmt.Sprintf("vm%d", i)
			if err := tb.Console.CreateNamespace(p, name, 256<<30, []int{i}); err != nil {
				t.Fatal(err)
			}
			if err := tb.Console.Bind(p, name, uint8(i)); err != nil {
				t.Fatal(err)
			}
			dcfg := host.DefaultDriverConfig()
			dcfg.VM = &vm
			drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = drv.BlockDev(0)
		}
		store, err := kvstore.Open(p, env, devs[0], kvstore.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ycsb.Load(p, store, ycfg); err != nil {
			t.Fatal(err)
		}
		dbc := minidb.DefaultConfig()
		dbc.PoolPages = 256
		db, err := minidb.Open(p, env, devs[1], dbc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sysbench.Load(p, db, scfg); err != nil {
			t.Fatal(err)
		}
		mysql := env.Go("mysql", func(vp *sim.Proc) { sysbench.Run(vp, env, db, scfg) })
		ycsb.Run(p, env, store, ycsb.WorkloadA(), ycfg)
		p.Wait(mysql.Done())
		if err := store.Flush(p); err != nil {
			t.Fatal(err)
		}
	})

	for i, d := range tb.SSDs {
		blocks, rule, leaves := d.StoreFootprint()
		bound := rule + rule/32 + leaves
		if blocks < 1000 {
			t.Fatalf("SSD %d stores %d blocks: the load did not reach it", i, blocks)
		}

		before := liveHeap()
		whole := d.WholeBlockCopy()
		planted := liveHeap() - before
		runtime.KeepAlive(whole)
		whole = nil

		held := liveHeap()
		d.DropStore()
		kept := held - liveHeap()
		t.Logf("SSD %d: %d blocks; rule %d KiB + leaves %d KiB; the store kept %d KiB, the same blocks kept whole %d KiB",
			i, blocks, rule>>10, leaves>>10, kept>>10, planted>>10)
		if kept > bound {
			t.Errorf("SSD %d: the store keeps %d bytes alive for %d blocks whose footprint is %d, leaves included; bound %d",
				i, kept, blocks, rule+leaves, bound)
		}
		if planted <= bound {
			t.Errorf("SSD %d: whole blocks (%d bytes) pass the bound %d: the check cannot tell", i, planted, bound)
		}
	}
}
