package bmstore

import (
	"testing"

	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// benchScenario is a fixed small rig plus fio workload used to price the
// tracing fast path: identical work with the tracer off, in digest mode,
// and in SHA-256 mode.
func benchScenario(seed int64) Scenario {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = 2
	cfg.Engine.ChunkBytes = 1 << 24
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510("BN" + string(rune('A'+i)))
		c.CapacityBytes = 1 << 30
		return c
	}
	return Scenario{
		Config: cfg,
		Body: func(tb *Testbed, p *sim.Proc) {
			if err := tb.Console.CreateNamespace(p, "vol", 64<<20, []int{0, 1}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol", 0); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			fio.Run(p, []host.BlockDevice{drv.BlockDev(0), drv.BlockDev(1)}, fio.Spec{
				Name: "bench", Pattern: fio.RandRead, BlockSize: 4096,
				IODepth: 16, NumJobs: 2, Runtime: 2 * sim.Millisecond,
			})
		},
	}
}

func runScenario(s Scenario, tr *trace.Tracer) {
	tb, err := NewBMStoreTestbed(s.Config, WithTrace(tr))
	if err != nil {
		panic(err)
	}
	tb.Run(func(p *sim.Proc) { s.Body(tb, p) })
}

// BenchmarkRigTraceOff is the baseline the tracing overhead criteria are
// judged against: the identical scenario with no tracer attached, so every
// emit site reduces to one nil check.
func BenchmarkRigTraceOff(b *testing.B) {
	s := benchScenario(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScenario(s, nil)
	}
}

// BenchmarkRigTraceDigest runs the same scenario with the streaming FNV-64
// digest on; the budget is <=10% over BenchmarkRigTraceOff.
func BenchmarkRigTraceDigest(b *testing.B) {
	s := benchScenario(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScenario(s, trace.NewDigest())
	}
}

// TestDeterminismCheckReportsDivergence proves the checker can actually
// fail: a body that consults wall-clock-free but run-varying state (a
// package counter) must produce different digests on the two runs.
func TestDeterminismCheckReportsDivergence(t *testing.T) {
	s := benchScenario(1)
	var runs int
	base := s.Body
	s.Body = func(tb *Testbed, p *sim.Proc) {
		runs++
		// A sleep whose length depends on how many times the scenario ran
		// is exactly the class of bug the checker exists to catch.
		p.Sleep(sim.Time(runs) * sim.Microsecond)
		base(tb, p)
	}
	first, second, ok := DeterminismCheck(s)
	if ok {
		t.Fatalf("nondeterministic body not detected (digest %s)", first)
	}
	if first == second {
		t.Fatal("digests equal but check failed — event counts diverged unexpectedly?")
	}
}
