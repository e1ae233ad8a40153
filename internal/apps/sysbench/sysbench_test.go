package sysbench_test

import (
	"testing"

	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

func openDB(t *testing.T, fn func(p *sim.Proc, env *sim.Env, db *minidb.DB)) {
	t.Helper()
	env := sim.NewEnv(71)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("SB001")
	cfg.CapacityBytes = 8 << 30
	dev := ssd.New(env, cfg)
	port := h.Connect(pcie.NewLink(env, 4, 300*sim.Nanosecond), dev, nil)
	dev.Attach(port)
	var drv *host.Driver
	var err error
	env.Go("attach", func(p *sim.Proc) {
		dcfg := host.DefaultDriverConfig()
		dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
		drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	main := env.Go("test", func(p *sim.Proc) {
		db, derr := minidb.Open(p, env, drv.BlockDev(0), minidb.DefaultConfig())
		if derr != nil {
			t.Fatal(derr)
		}
		fn(p, env, db)
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

func TestQueryMixAndAccounting(t *testing.T) {
	openDB(t, func(p *sim.Proc, env *sim.Env, db *minidb.DB) {
		cfg := sysbench.DefaultConfig()
		cfg.TableSize = 2000
		cfg.Threads = 4
		cfg.Duration = 200 * sim.Millisecond
		if err := sysbench.Load(p, db, cfg); err != nil {
			t.Fatal(err)
		}
		res := sysbench.Run(p, env, db, cfg)
		if res.Transactions == 0 {
			t.Fatal("no transactions")
		}
		if qpt := float64(res.Queries) / float64(res.Transactions); qpt != 20 {
			t.Fatalf("queries/txn %.2f, want 20", qpt)
		}
		if res.TPS() <= 0 || res.QPS() != res.TPS()*20 {
			t.Fatalf("rates inconsistent: %.0f TPS %.0f QPS", res.TPS(), res.QPS())
		}
	})
}

func TestQueryCPUSlowsTransactions(t *testing.T) {
	run := func(qcpu sim.Time) float64 {
		var tps float64
		openDB(t, func(p *sim.Proc, env *sim.Env, db *minidb.DB) {
			cfg := sysbench.DefaultConfig()
			cfg.TableSize = 1000
			cfg.Threads = 2
			cfg.Duration = 150 * sim.Millisecond
			cfg.QueryCPU = qcpu
			if err := sysbench.Load(p, db, cfg); err != nil {
				t.Fatal(err)
			}
			tps = sysbench.Run(p, env, db, cfg).TPS()
		})
		return tps
	}
	fast := run(0)
	slow := run(100 * sim.Microsecond)
	if slow >= fast {
		t.Fatalf("QueryCPU had no effect: %.0f vs %.0f", fast, slow)
	}
	// 18 queries x 100us ~ 1.8ms/txn: 2 threads cap near 1100 TPS.
	if slow > 1600 {
		t.Fatalf("slow TPS %.0f, want <=~1100", slow)
	}
}

func TestTransactionDurability(t *testing.T) {
	openDB(t, func(p *sim.Proc, env *sim.Env, db *minidb.DB) {
		cfg := sysbench.DefaultConfig()
		cfg.TableSize = 500
		cfg.Threads = 2
		cfg.Duration = 50 * sim.Millisecond
		if err := sysbench.Load(p, db, cfg); err != nil {
			t.Fatal(err)
		}
		sysbench.Run(p, env, db, cfg)
		// Every original row is still readable (updates replace, never drop).
		for i := 0; i < 500; i += 17 {
			if _, ok, err := db.Begin().Read(p, uint64(i)); err != nil || !ok {
				t.Fatalf("row %d lost: ok=%v err=%v", i, ok, err)
			}
		}
	})
}
