package engine

import (
	"bytes"
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// Chip-memory PRP list pages must recycle: a long stream of large I/Os
// through a deliberately tiny chip RAM succeeds only if completed
// commands' list pages return to the free pool.
func TestChipMemoryPRPListRecycling(t *testing.T) {
	h := newFeHarness(t, 1)
	// Rebuild with a tiny chip memory is intrusive; instead drive enough
	// list-bearing I/O that a leak of one page per command would consume
	// >8x the default backend-ring headroom.
	ns, err := h.eng.CreateNamespace("v", 16*testChunk, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	h.eng.Bind(0, ns)
	before := len(h.eng.free) + 0
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 256)
		buf := h.mem.AllocPages(32) // 128K => PRP list per I/O
		for i := 0; i < 500; i++ {
			cpl := h.rw(p, 0, nvme.IORead, uint64(i%100)*32, make([]byte, 32*ssd.BlockSize), buf)
			if cpl.Status.IsError() {
				t.Fatalf("read %d: %#x", i, cpl.Status)
			}
		}
	})
	// All list pages are back on the free list (no leak): the pool grew by
	// at most the in-flight working set, not by ~500 pages.
	if grown := len(h.eng.free) - before; grown > 64 {
		t.Fatalf("free list grew by %d, expected bounded reuse", grown)
	}
	if len(h.eng.free) == 0 {
		t.Fatal("no pages ever recycled")
	}
}

// QoS command buffer drains strictly FIFO (the Fig. 5 dispatcher).
func TestQoSBufferFIFOOrder(t *testing.T) {
	env := sim.NewEnv(3)
	ns := &Namespace{env: env, qos: newQoSBucket(env, QoSLimits{IOPS: 1000}), parked: new(uint64)}
	ns.dispatchFn = ns.dispatchStep
	// Exhaust the burst.
	for {
		if ok, _ := ns.qos.Admit(4096); !ok {
			break
		}
	}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		// Deterministic arrival order, one command per nanosecond.
		env.Schedule(sim.Time(i), func() {
			ns.admitCB(4096, func(any) { order = append(order, i) })
		})
	}
	env.Run()
	if len(order) != 10 {
		t.Fatalf("only %d admitted", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("dispatch order %v, want FIFO", order)
		}
	}
}

// A function unbound mid-flight keeps completing cleanly; rebinding a new
// namespace gives the tenant the new capacity (hot-plug identity story).
func TestUnbindRebindFunction(t *testing.T) {
	h := newFeHarness(t, 1)
	nsA, _ := h.eng.CreateNamespace("a", 2*testChunk, []int{0})
	h.eng.Bind(0, nsA)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		h.eng.Unbind(0)
		if cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf); cpl.Status != nvme.StatusInvalidNamespace {
			t.Fatalf("unbound read: %#x", cpl.Status)
		}
		nsB, err := h.eng.CreateNamespace("b", 4*testChunk, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.eng.Bind(0, nsB); err != nil {
			t.Fatal(err)
		}
		if cpl := h.rw(p, 0, nvme.IORead, 3*256, make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("rebound read: %#x", cpl.Status)
		}
	})
}

// Store-and-forward staging (the ablation) still delivers correct data.
func TestStoreAndForwardCorrectness(t *testing.T) {
	h2 := newFeHarnessWith(t, 1, func(cfg *Config) { cfg.StoreAndForward = true })
	ns, _ := h2.eng.CreateNamespace("v", 2*testChunk, []int{0})
	h2.eng.Bind(0, ns)
	h2.run(func(p *sim.Proc) {
		h2.initFunc(p, 0, 64)
		data := make([]byte, 4*ssd.BlockSize)
		for i := range data {
			data[i] = byte(i * 7)
		}
		buf := h2.mem.AllocPages(4)
		if cpl := h2.rw(p, 0, nvme.IOWrite, 8, data, buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		rbuf := h2.mem.AllocPages(4)
		if cpl := h2.rw(p, 0, nvme.IORead, 8, make([]byte, len(data)), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, len(data))
		h2.mem.Read(rbuf, got)
		for i := range got {
			if got[i] != data[i] {
				t.Fatal("store-and-forward corrupted data")
			}
		}
	})
}

// A tracer and a fault injector are probes on the data path, not reasons to
// fall back to a process per command: with both attached, a batch of reads
// spawns no process at all.
func TestObserversDoNotGateFusedPath(t *testing.T) {
	env := sim.NewEnv(1)
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	env.SetTracer(tr)
	env.SetFaults(fault.New(fault.Rule{Point: fault.BackendSubmit, Duration: 1}))
	h := newFeHarnessEnv(t, env, 1, nil)
	ns, _ := h.eng.CreateNamespace("v", 2*testChunk, []int{0})
	h.eng.Bind(0, ns)
	var before int
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		tr.Flush()
		before = dump.Len()
		for i := 0; i < 20; i++ {
			if cpl := h.rw(p, 0, nvme.IORead, uint64(i), make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
				t.Fatalf("read %d: %#x", i, cpl.Status)
			}
		}
	})
	tr.Flush()
	io := dump.String()[before:]
	if !strings.Contains(io, " engine dispatch") || !strings.Contains(io, " ssd    issue") {
		t.Fatal("the reads left no engine or ssd records; the tracer is not attached")
	}
	if strings.Contains(io, " spawn ") {
		t.Fatalf("traced, faulted reads spawned processes:\n%s", io)
	}
}
