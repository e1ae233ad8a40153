package bmstore

import (
	"fmt"
	"runtime"
	"testing"

	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// The heap a command in flight may keep on Fig. 10's four-SSD point (16 jobs
// × QD 256 of 128 KiB), in bytes: what TestDeepQueueHeapPerCommand measured
// plus 5 %, rounded up. The figure is everything the deep queue holds beyond
// the rig — fio's workers, the driver's episodes, the engine's and the SSDs'
// command records, PRP-list buffers and pooled carriers — spread over the
// commands; the write phase's includes the pools the read phase left. It read
// 5 828 (reads) and 6 124 (writes) while every engine and SSD record kept its
// own PRP segment slices and every walked list page was held to completion,
// and 3 941 and 4 212 since that scratch belongs to the engine and the SSD and
// a list page goes back after its last reader.
const (
	deepQueueReadHeapCeiling  = 4139
	deepQueueWriteHeapCeiling = 4423
)

// TestDeepQueueHeapPerCommand holds the deep queue's retained heap per
// command to its ceilings: it builds a four-SSD BM-Store rig, runs 16
// jobs × QD 256 of 128 KiB sequential reads and then writes, stops the clock
// while each phase's pipeline is full, collects garbage and divides the heap
// grown since the rig was built by the commands in flight. A per-command
// slice or buffer that no wait needs, kept in a pooled record again, shows
// here as its size times the queue depth.
func TestDeepQueueHeapPerCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("weighs the heap; a -race build's allocations are not the ones measured")
	}
	cfg := DefaultConfig()
	cfg.NumSSDs = 4
	tb, err := NewBMStoreTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Env.Shutdown()
	var drivers []*host.Driver
	var devs []host.BlockDevice
	setup := tb.Go("setup", func(p *sim.Proc) {
		for i := 0; i < cfg.NumSSDs; i++ {
			vol := fmt.Sprintf("vol%d", i)
			if err := tb.Console.CreateNamespace(p, vol, 1536<<30, []int{i}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, vol, uint8(i)); err != nil {
				panic(err)
			}
			drv, err := tb.AttachTenant(p, pcie.FuncID(i), host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			drivers = append(drivers, drv)
			for j := 0; j < 4; j++ {
				devs = append(devs, drv.BlockDev(j))
			}
		}
	})
	tb.Env.RunUntilEvent(setup.Done())
	base := liveHeap()

	for _, ph := range []struct {
		pat     fio.Pattern
		ceiling int64
	}{{fio.SeqRead, deepQueueReadHeapCeiling}, {fio.SeqWrite, deepQueueWriteHeapCeiling}} {
		pat := ph.pat
		spec := fio.Spec{Name: "deep", Pattern: pat, BlockSize: 128 << 10, IODepth: 256, NumJobs: 16,
			Runtime: 20 * sim.Millisecond}
		phase := tb.Go("fio", func(p *sim.Proc) { fio.Run(p, devs, spec) })
		// Each worker submits again as soon as its I/O completes, so 5 ms in,
		// every worker's command is in flight or on its way back.
		tb.Env.RunUntil(tb.Env.Now() + 5*sim.Millisecond)
		var inflight uint64
		for _, drv := range drivers {
			c := drv.Counters()
			inflight += c.Submitted - c.Completed
		}
		if want := uint64(spec.NumJobs * spec.IODepth); inflight < want*9/10 {
			t.Fatalf("%v: %d commands in flight at the weighing, want the pipeline full (%d)", pat, inflight, want)
		}
		perCmd := (int64(liveHeap()) - int64(base)) / int64(inflight)
		t.Logf("%v: %d commands in flight keep %d B of heap each", pat, inflight, perCmd)
		if perCmd > ph.ceiling {
			t.Errorf("%v: %d commands in flight keep %d B of heap each, ceiling %d B", pat, inflight, perCmd, ph.ceiling)
		}
		tb.Env.RunUntilEvent(phase.Done())
	}
}

// liveHeap collects garbage and returns the bytes of heap objects that
// survived.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
