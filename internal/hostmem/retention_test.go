package hostmem_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"bmstore"
	"bmstore/internal/engine"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/hostmem"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// liveHeap is the heap in use after two full collections: the second frees
// what a sync.Pool still cached at the first, so it cannot be counted as
// freed by whatever is dropped next.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// weigh is the heap freed when m's pages are dropped: what they alone kept
// alive.
func weigh(m *hostmem.Memory) int64 {
	held := liveHeap()
	m.DropPages()
	return held - liveHeap()
}

// chipMem is the engine's chip RAM, which the engine keeps to itself.
func chipMem(e *engine.Engine) *hostmem.Memory {
	return (*hostmem.Memory)(reflect.ValueOf(e).Elem().FieldByName("chip").UnsafePointer())
}

// TestMemoryKeepsWhatItHolds runs the repo benchmark's seq128k rig — 4 SSDs,
// a namespace and tenant driver each, 16 jobs × QD 256 of 128 KiB sequential
// reads — for a few milliseconds, so that 4096 commands each hold a PRP-list
// page in host memory and another in the engine's chip memory, and weighs
// both memories: the heap a memory's pages free when dropped may exceed the
// prefix rule's footprint (whole pages, short pieces, loose pieces) by no more
// than one slab, and at least one list page per command must be short. The
// same pages kept whole, as the memory kept them before pages kept their used
// prefix, must fail that bound.
func TestMemoryKeepsWhatItHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4096 commands in flight")
	}
	const ssds, jobs, depth = 4, 16, 256
	cfg := bmstore.DefaultConfig()
	cfg.Seed = 2801
	cfg.NumSSDs = ssds
	tb, err := bmstore.NewBMStoreTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) {
		var devs []host.BlockDevice
		for i := 0; i < ssds; i++ {
			vol := fmt.Sprintf("vol%d", i)
			if err := tb.Console.CreateNamespace(p, vol, 1536<<30, []int{i}); err != nil {
				t.Fatal(err)
			}
			if err := tb.Console.Bind(p, vol, uint8(i)); err != nil {
				t.Fatal(err)
			}
			drv, err := tb.AttachTenant(p, pcie.FuncID(i), host.DefaultDriverConfig())
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < jobs/ssds; j++ {
				devs = append(devs, drv.BlockDev(j))
			}
		}
		fio.Run(p, devs, fio.Spec{Name: "seqr256", Pattern: fio.SeqRead, BlockSize: 128 << 10,
			IODepth: depth, NumJobs: jobs, Runtime: 2 * sim.Millisecond})
	})

	for _, mem := range []struct {
		name string
		m    *hostmem.Memory
	}{{"host memory", tb.Host.Mem}, {"chip memory", chipMem(tb.Engine)}} {
		whole, short, loose := mem.m.PageCensus()
		bound := int64(whole)*hostmem.PageSize + int64(short+loose)*hostmem.ShortPage + hostmem.SlabBytes
		if short < jobs*depth {
			t.Errorf("%s: %d short pages (%d whole) for %d commands in flight: list pages are not short",
				mem.name, short, whole, jobs*depth)
		}
		copied := mem.m.WholePageCopy()
		planted := weigh(copied)
		runtime.KeepAlive(copied)
		kept := weigh(mem.m)
		t.Logf("%s: %d whole pages, %d short, %d loose; bound %d KiB; the pages kept %d KiB, the same pages kept whole %d KiB",
			mem.name, whole, short, loose, bound>>10, kept>>10, planted>>10)
		if kept > bound {
			t.Errorf("%s: the pages keep %d bytes alive; bound %d", mem.name, kept, bound)
		}
		if planted <= bound {
			t.Errorf("%s: whole pages (%d bytes) pass the bound %d: the check cannot tell", mem.name, planted, bound)
		}
	}
	runtime.KeepAlive(tb)
}
