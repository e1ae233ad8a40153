package bmstore_test

import (
	"fmt"
	"testing"

	"bmstore"
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
