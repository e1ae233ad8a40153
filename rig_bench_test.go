package bmstore_test

import (
	"fmt"
	"testing"

	"bmstore"
	"bmstore/internal/fleet"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// BenchmarkRigBuild prices what the repo benchmark builds before its first
// I/O, once per op: a 4-SSD BM-Store testbed, a namespace per SSD bound to its
// tenant function, and four attached tenant drivers — admin and I/O queues
// created, their rings touched by bring-up. A fleet pays this once per host.
//
// Its allocs/op is pinned by make bench-gate at the measured count plus 5 %:
// rig construction allocates by design (components, queues, pools), so the
// ceiling guards against a per-queue, per-slot or per-page cost coming back.
func BenchmarkRigBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := bmstore.DefaultConfig()
		cfg.NumSSDs = 4
		tb, err := bmstore.NewBMStoreTestbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tb.Run(func(p *sim.Proc) {
			for i := 0; i < cfg.NumSSDs; i++ {
				vol := fmt.Sprintf("vol%d", i)
				if err := tb.Console.CreateNamespace(p, vol, 1536<<30, []int{i}); err != nil {
					panic(err)
				}
				if err := tb.Console.Bind(p, vol, uint8(i)); err != nil {
					panic(err)
				}
				if _, err := tb.AttachTenant(p, pcie.FuncID(i), host.DefaultDriverConfig()); err != nil {
					panic(err)
				}
			}
		})
	}
}

// BenchmarkFleetHost prices one host of the repo benchmark's fleet-rollout,
// once per op: fleet.RunHost at that workload's options (16 hosts in waves
// of 4, one tenant per host, one worker) — a rig built, its tenant's I/O
// through a firmware hot-upgrade of its SSD, the health gate.
//
// make bench-gate pins its allocs/op and its B/op at the measured values
// plus 5 %: a host allocates by design (its rig, its tenants), so the
// ceilings guard against a per-chunk, per-command or per-append cost coming
// back — a firmware image copied whole shows in B/op long before allocs/op.
func BenchmarkFleetHost(b *testing.B) {
	opts := fleet.Options{Hosts: 16, WaveSize: 4, MaxTenants: 1, Seed: 1, Parallel: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if hr := fleet.RunHost(opts, 0); !hr.Healthy {
			b.Fatalf("host 0 unhealthy: %s", hr.Reason)
		}
	}
}
