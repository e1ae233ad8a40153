package ycsb_test

import (
	"testing"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

func runOn(t *testing.T, fn func(p *sim.Proc, env *sim.Env, s *kvstore.Store)) {
	t.Helper()
	env := sim.NewEnv(51)
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("Y001")
	cfg.CapacityBytes = 4 << 30
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
		s, serr := kvstore.Open(p, env, drv.BlockDev(0), kvstore.DefaultConfig())
		if serr != nil {
			t.Fatal(serr)
		}
		fn(p, env, s)
	})
	env.RunUntilEvent(main.Done())
	env.Shutdown()
}

func TestWorkloadCThroughputAndReads(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 3000, ValueBytes: 200, Threads: 4, Duration: 200 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		res := ycsb.Run(p, env, s, ycsb.WorkloadC(), cfg)
		if res.Ops == 0 || res.Failed != 0 {
			t.Fatalf("ops=%d failed=%d", res.Ops, res.Failed)
		}
		if res.Throughput() < 1000 {
			t.Fatalf("throughput %.0f too low", res.Throughput())
		}
		if s.Stats.Gets < res.Ops {
			t.Fatalf("reads not reaching the store: %d vs %d", s.Stats.Gets, res.Ops)
		}
	})
}

func TestWorkloadAMixesWrites(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 2000, ValueBytes: 200, Threads: 4, Duration: 200 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		before := s.Stats.Puts
		res := ycsb.Run(p, env, s, ycsb.WorkloadA(), cfg)
		writes := s.Stats.Puts - before
		frac := float64(writes) / float64(res.Ops)
		if frac < 0.4 || frac > 0.6 {
			t.Fatalf("write fraction %.2f, want ~0.5", frac)
		}
	})
}

func TestWorkloadEScans(t *testing.T) {
	runOn(t, func(p *sim.Proc, env *sim.Env, s *kvstore.Store) {
		cfg := ycsb.Config{Records: 2000, ValueBytes: 200, Threads: 2, Duration: 100 * sim.Millisecond}
		if err := ycsb.Load(p, s, cfg); err != nil {
			t.Fatal(err)
		}
		res := ycsb.Run(p, env, s, ycsb.Workload{Name: "E", InsertProp: 0.05, MaxScanLen: 100}, cfg)
		if s.Stats.Scans == 0 {
			t.Fatal("workload E produced no scans")
		}
		if res.Failed != 0 {
			t.Fatalf("%d failures", res.Failed)
		}
	})
}
