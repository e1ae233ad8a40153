package engine

import (
	"bytes"
	"fmt"
	"testing"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// feHarness drives the engine's front-end functions the way a host NVMe
// driver would, over the shared initiator: rings in host memory, doorbells,
// MSI completions. Its owner side is the least there can be — sequential
// CIDs, one waiter per CID, no slot accounting.
type feHarness struct {
	t    *testing.T
	env  *sim.Env
	mem  *hostmem.Memory
	eng  *Engine
	port *pcie.Port

	qs      map[qkey]*nvmei.Queue
	nextCID uint16
	waiting map[uint16]*sim.Event
}

type qkey struct {
	fn  pcie.FuncID
	qid uint16
}

// testChunk is a small chunk size so chunk-boundary behaviour is testable.
const testChunk = 1 << 20 // 1 MB = 256 LBAs

func newFeHarness(t *testing.T, numSSDs int) *feHarness {
	return newFeHarnessWith(t, numSSDs, nil)
}

func newFeHarnessWith(t *testing.T, numSSDs int, mutate func(*Config)) *feHarness {
	return newFeHarnessEnv(t, sim.NewEnv(11), numSSDs, mutate)
}

// newFeHarnessEnv builds the harness on a caller-provided environment, so
// tests can arm observers (fault injectors, tracers) before any component
// caches its pointers.
func newFeHarnessEnv(t *testing.T, env *sim.Env, numSSDs int, mutate func(*Config)) *feHarness {
	mem := hostmem.New(512 << 20)
	root := pcie.NewRoot(env, mem)

	cfg := DefaultConfig()
	cfg.ChunkBytes = testChunk
	cfg.BackendQDepth = 256
	if mutate != nil {
		mutate(&cfg)
	}
	eng := New(env, cfg)

	h := &feHarness{
		t: t, env: env, mem: mem, eng: eng,
		qs:      make(map[qkey]*nvmei.Queue),
		waiting: make(map[uint16]*sim.Event),
	}
	hostLink := pcie.NewLink(env, 16, 250*sim.Nanosecond)
	h.port = pcie.Connect(env, hostLink, root, h.irq, nil, eng)
	eng.AttachHost(h.port)

	for i := 0; i < numSSDs; i++ {
		cfg := ssd.P4510(fmt.Sprintf("SN%03d", i))
		cfg.CapacityBytes = 64 << 20 // 64 MB toy disk = 64 chunks
		dev := ssd.New(env, cfg)
		eng.AttachBackend(dev, pcie.NewLink(env, 4, 300*sim.Nanosecond))
	}
	var startErr error
	done := env.Go("start", func(p *sim.Proc) { startErr = eng.Start(p) })
	env.Run()
	if !done.Done().Processed() || startErr != nil {
		t.Fatalf("engine start failed: %v", startErr)
	}
	return h
}

// irq is shared across functions: vector scans that function's CQ.
func (h *feHarness) irq(fn pcie.FuncID, vec int) {
	q := h.qs[qkey{fn, uint16(vec)}]
	if q == nil {
		return
	}
	var cpl nvme.Completion
	for q.Next(&cpl) {
		if ev := h.waiting[cpl.CID]; ev != nil {
			delete(h.waiting, cpl.CID)
			ev.Trigger(cpl)
		}
	}
}

// initFunc brings up function fn: admin queues plus I/O queue pair 1.
func (h *feHarness) initFunc(p *sim.Proc, fn pcie.FuncID, depth uint32) {
	conn := nvmei.Conn{Env: h.env, Mem: h.mem, Port: h.port, Fn: fn}
	asq := h.mem.AllocPages(1)
	admin := conn.NewQueue(0, 32, asq, h.mem.AllocPages(1))
	h.qs[qkey{fn, 0}] = admin
	admin.Enable()
	cqb := h.mem.AllocPages(nvmei.RingPages(depth, nvme.CQESize))
	io := conn.NewQueue(1, depth, h.mem.AllocPages(nvmei.RingPages(depth, nvme.SQESize)), cqb)
	err := io.Create(p, func(p *sim.Proc, cmd nvme.Command) nvme.Completion { return h.submit(p, fn, 0, cmd) })
	if err != nil {
		h.t.Fatalf("fn%d: %v", fn, err)
	}
	h.qs[qkey{fn, 1}] = io
}

func (h *feHarness) submit(p *sim.Proc, fn pcie.FuncID, qid uint16, cmd nvme.Command) nvme.Completion {
	return p.Wait(h.submitAsync(fn, qid, cmd)).(nvme.Completion)
}

func (h *feHarness) submitAsync(fn pcie.FuncID, qid uint16, cmd nvme.Command) *sim.Event {
	q := h.qs[qkey{fn, qid}]
	h.nextCID++
	cmd.CID = h.nextCID
	q.Push(&cmd)
	ev := h.env.NewEvent()
	h.waiting[cmd.CID] = ev
	q.Ring()
	return ev
}

func (h *feHarness) rw(p *sim.Proc, fn pcie.FuncID, op uint8, slba uint64, data []byte, buf uint64) nvme.Completion {
	p1, p2, _ := nvme.BuildPRPs(h.mem, buf, len(data))
	if op == nvme.IOWrite {
		h.mem.Write(buf, data)
	}
	cmd := nvme.Command{Opcode: op, NSID: FrontNSID, PRP1: p1, PRP2: p2}
	cmd.SetSLBA(slba)
	cmd.SetNLB(uint32(len(data) / ssd.BlockSize))
	return h.submit(p, fn, 1, cmd)
}

func (h *feHarness) run(fn func(p *sim.Proc)) {
	h.env.Go("test", fn)
	h.env.Run()
}

func TestFrontEndIdentify(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, err := h.eng.CreateNamespace("vol0", 4*testChunk, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Bind(5, ns); err != nil {
		t.Fatal(err)
	}
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 5, 64)
		page := h.mem.AllocPages(1)
		cpl := h.submit(p, 5, 0, nvme.Command{Opcode: nvme.AdminIdentify, PRP1: page, CDW10: nvme.CNSController})
		if cpl.Status.IsError() {
			t.Fatalf("identify: %#x", cpl.Status)
		}
		buf := make([]byte, nvme.IdentifyPageSize)
		h.mem.Read(page, buf)
		ic := nvme.DecodeIdentifyController(buf)
		if ic.Serial != "BMS-VF005" || ic.NN != 1 {
			t.Fatalf("identify %+v", ic)
		}
		if ic.TotalCapBytes != 4*testChunk {
			t.Fatalf("capacity %d", ic.TotalCapBytes)
		}
		cpl = h.submit(p, 5, 0, nvme.Command{Opcode: nvme.AdminIdentify, NSID: FrontNSID, PRP1: page, CDW10: nvme.CNSNamespace})
		if cpl.Status.IsError() {
			t.Fatalf("identify ns: %#x", cpl.Status)
		}
		h.mem.Read(page, buf)
		in := nvme.DecodeIdentifyNamespace(buf)
		if in.NSZE != 4*testChunk/ssd.BlockSize {
			t.Fatalf("nsze %d", in.NSZE)
		}
	})
}

func TestHostAdminCannotManageNamespaces(t *testing.T) {
	h := newFeHarness(t, 1)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		cpl := h.submit(p, 0, 0, nvme.Command{Opcode: nvme.AdminNSManagement})
		if cpl.Status != nvme.StatusInvalidOpcode {
			t.Fatalf("NS management from host returned %#x", cpl.Status)
		}
		cpl = h.submit(p, 0, 0, nvme.Command{Opcode: nvme.AdminFWCommit})
		if cpl.Status != nvme.StatusInvalidOpcode {
			t.Fatalf("FW commit from host returned %#x", cpl.Status)
		}
	})
}

func TestFullPathDataIntegrity(t *testing.T) {
	h := newFeHarness(t, 2)
	// Namespace striped across both SSDs in 1 MB chunks.
	ns, err := h.eng.CreateNamespace("vol0", 8*testChunk, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Bind(0, ns); err != nil {
		t.Fatal(err)
	}
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		data := make([]byte, 16*ssd.BlockSize) // 64K, exercises PRP lists
		for i := range data {
			data[i] = byte(i*13 + 7)
		}
		// Write straddling the chunk 0 -> chunk 1 boundary (LBA 248..264),
		// which also crosses SSDs.
		buf := h.mem.AllocPages(16)
		if cpl := h.rw(p, 0, nvme.IOWrite, 248, data, buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(16)
		if cpl := h.rw(p, 0, nvme.IORead, 248, make([]byte, len(data)), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, len(data))
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted through the BM-Store path")
		}
		// The two SSDs must each have seen part of the write.
		d0, d1 := h.eng.backends[0].dev, h.eng.backends[1].dev
		r0, w0, r1, w1 := d0.Ops.Reads, d0.Ops.Writes, d1.Ops.Reads, d1.Ops.Writes
		if w0 == 0 || w1 == 0 {
			t.Fatalf("write not split across SSDs: %d/%d", w0, w1)
		}
		if r0 == 0 || r1 == 0 {
			t.Fatalf("read not split across SSDs: %d/%d", r0, r1)
		}
	})
}

func TestNamespaceIsolation(t *testing.T) {
	h := newFeHarness(t, 1)
	nsA, _ := h.eng.CreateNamespace("a", testChunk, []int{0})
	nsB, _ := h.eng.CreateNamespace("b", testChunk, []int{0})
	h.eng.Bind(0, nsA)
	h.eng.Bind(1, nsB)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		h.initFunc(p, 1, 64)
		bufA := h.mem.AllocPages(1)
		data := bytes.Repeat([]byte{0xAA}, ssd.BlockSize)
		if cpl := h.rw(p, 0, nvme.IOWrite, 3, data, bufA); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		// Same host LBA through function 1 must read zeros, not fn0 data.
		rbuf := h.mem.AllocPages(1)
		if cpl := h.rw(p, 1, nvme.IORead, 3, make([]byte, ssd.BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, ssd.BlockSize)
		h.mem.Read(rbuf, got)
		for _, b := range got {
			if b != 0 {
				t.Fatal("namespace isolation violated")
			}
		}
	})
}

func TestUnboundFunctionRejectsIO(t *testing.T) {
	h := newFeHarness(t, 1)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 7, 64)
		buf := h.mem.AllocPages(1)
		cpl := h.rw(p, 7, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf)
		if cpl.Status != nvme.StatusInvalidNamespace {
			t.Fatalf("status %#x", cpl.Status)
		}
	})
}

func TestFrontEndLBAOutOfRange(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		cpl := h.rw(p, 0, nvme.IORead, 255, make([]byte, 2*ssd.BlockSize), buf)
		if cpl.Status != nvme.StatusLBAOutOfRange {
			t.Fatalf("status %#x", cpl.Status)
		}
	})
}

func TestFlushFansOut(t *testing.T) {
	h := newFeHarness(t, 2)
	ns, _ := h.eng.CreateNamespace("v", 2*testChunk, []int{0, 1})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		cmd := nvme.Command{Opcode: nvme.IOFlush, NSID: FrontNSID}
		cpl := h.submit(p, 0, 1, cmd)
		if cpl.Status.IsError() {
			t.Fatalf("flush: %#x", cpl.Status)
		}
	})
}

func TestQoSThrottlesNamespace(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	ns.SetQoS(QoSLimits{IOPS: 5000})
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		start := p.Now()
		done := 0
		// 4 submitters hammering QD1 each for 100 ms.
		stop := start + 100*sim.Millisecond
		for i := 0; i < 4; i++ {
			h.env.Go("job", func(jp *sim.Proc) {
				for jp.Now() < stop {
					h.rw(jp, 0, nvme.IORead, uint64(done%256), make([]byte, ssd.BlockSize), buf)
					if jp.Now() <= stop {
						done++
					}
				}
			})
		}
		p.Sleep(110 * sim.Millisecond)
		iops := float64(done) / 0.1
		// 5000 IOPS cap (+burst slack); without QoS this rig does >40K.
		if iops > 6500 {
			t.Fatalf("QoS leak: %.0f IOPS against a 5000 cap", iops)
		}
		if iops < 3500 {
			t.Fatalf("QoS overthrottle: %.0f IOPS", iops)
		}
	})
}

func TestQuiesceHoldsIOWithoutErrors(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		var errs, completions int
		stopAt := p.Now() + 40*sim.Millisecond
		h.env.Go("job", func(jp *sim.Proc) {
			for jp.Now() < stopAt {
				cpl := h.rw(jp, 0, nvme.IORead, 1, make([]byte, ssd.BlockSize), buf)
				if cpl.Status.IsError() {
					errs++
				}
				completions++
			}
		})
		p.Sleep(5 * sim.Millisecond)
		h.eng.QuiesceBackend(p, 0)
		quiescedAt := p.Now()
		// The last drained command's CQE is still in flight to the host
		// (CQE DMA + MSI); let it land before snapshotting.
		p.Sleep(100 * sim.Microsecond)
		before := completions
		p.Sleep(10 * sim.Millisecond)
		if completions != before {
			t.Fatalf("I/O completed while quiesced (%d -> %d)", before, completions)
		}
		if err := h.eng.ResumeBackend(p, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(30 * sim.Millisecond)
		if errs != 0 {
			t.Fatalf("%d I/O errors across quiesce", errs)
		}
		if completions <= before {
			t.Fatal("I/O did not resume after gate reopened")
		}
		_ = quiescedAt
	})
}

func TestHotUpgradeThroughEngine(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		// Quiesce, push firmware via the engine's admin passthrough,
		// commit, wait for reset, resume.
		h.eng.QuiesceBackend(p, 0)
		img := append([]byte("VDV10199"), make([]byte, 4088)...)
		cpl := h.eng.BackendAdmin(p, 0, nvme.Command{
			Opcode: nvme.AdminFWDownload, CDW10: uint32(len(img)/4) - 1,
		}, img, nil)
		if cpl.Status.IsError() {
			t.Fatalf("fw download: %#x", cpl.Status)
		}
		cpl = h.eng.BackendAdmin(p, 0, nvme.Command{Opcode: nvme.AdminFWCommit, CDW10: 3 << 3}, nil, nil)
		if cpl.Status.IsError() {
			t.Fatalf("fw commit: %#x", cpl.Status)
		}
		p.Sleep(sim.Millisecond) // let the reset window begin
		h.eng.WaitBackendReset(p, 0)
		if err := h.eng.ResumeBackend(p, 0); err != nil {
			t.Fatal(err)
		}
		if got := h.eng.BackendFirmware(0); got != "VDV10199" {
			t.Fatalf("firmware %q", got)
		}
		// Data path must still work after queue rebuild.
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("post-upgrade read: %#x", cpl.Status)
		}
	})
}

func TestHotPlugReplacePreservesFrontEnd(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		data := bytes.Repeat([]byte{0x5A}, ssd.BlockSize)
		h.rw(p, 0, nvme.IOWrite, 0, data, buf)

		h.eng.QuiesceBackend(p, 0)
		cfg := ssd.P4510("SN-NEW")
		cfg.CapacityBytes = 64 << 20
		newDev := ssd.New(h.env, cfg)
		if err := h.eng.ReplaceBackend(p, 0, newDev, pcie.NewLink(h.env, 4, 300*sim.Nanosecond)); err != nil {
			t.Fatal(err)
		}
		if err := h.eng.ResumeBackend(p, 0); err != nil {
			t.Fatal(err)
		}
		// Front-end namespace identity survives; no re-enumeration needed.
		rbuf := h.mem.AllocPages(1)
		cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), rbuf)
		if cpl.Status.IsError() {
			t.Fatalf("read after replace: %#x", cpl.Status)
		}
		got := make([]byte, 1)
		h.mem.Read(rbuf, got)
		if got[0] != 0 {
			t.Fatal("new device should start empty")
		}
		if h.eng.BackendDevice(0).Config().Serial != "SN-NEW" {
			t.Fatal("backend not replaced")
		}
	})
}

func TestIOCountersExposedToMonitor(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("vol-7", 4*testChunk, []int{0})
	h.eng.Bind(3, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 3, 64)
		buf := h.mem.AllocPages(1)
		for i := 0; i < 5; i++ {
			h.rw(p, 3, nvme.IOWrite, uint64(i), make([]byte, ssd.BlockSize), buf)
		}
		h.rw(p, 3, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf)
		c, ok := h.eng.Counters(3)
		if !ok {
			t.Fatal("no counters for bound function")
		}
		if c.WriteOps != 5 || c.ReadOps != 1 || c.Namespace != "vol-7" {
			t.Fatalf("counters %+v", c)
		}
		if c.WriteBytes != 5*ssd.BlockSize {
			t.Fatalf("write bytes %d", c.WriteBytes)
		}
		if _, ok := h.eng.Counters(9); ok {
			t.Fatal("counters for unbound function")
		}
	})
}

func TestEngineAddsAboutThreeMicroseconds(t *testing.T) {
	// Compare QD1 4K read latency through the engine against the raw SSD
	// figure (~72.5us at device level in the ssd package tests): the
	// engine should add roughly 3us (Table V).
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf) // warm up
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			h.rw(p, 0, nvme.IORead, uint64(i), make([]byte, ssd.BlockSize), buf)
		}
		avg := float64(p.Now()-start) / n / 1000
		if avg < 71 || avg > 80 {
			t.Fatalf("engine-path QD1 read %.1fus, want ~73-78", avg)
		}
	})
}

func TestNamespaceAllocationErrors(t *testing.T) {
	h := newFeHarness(t, 1)
	if _, err := h.eng.CreateNamespace("z", 0, []int{0}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := h.eng.CreateNamespace("z", testChunk, nil); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := h.eng.CreateNamespace("z", testChunk, []int{5}); err == nil {
		t.Fatal("bad backend accepted")
	}
	// 8 rows x 8 entries = 64 chunks max per namespace.
	if _, err := h.eng.CreateNamespace("z", 65*testChunk, []int{0}); err == nil {
		t.Fatal("oversized namespace accepted")
	}
	// Exhaust the 64-chunk toy disk, then fail.
	a, err := h.eng.CreateNamespace("a", 64*testChunk, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.CreateNamespace("b", testChunk, []int{0}); err == nil {
		t.Fatal("overcommit accepted")
	}
	if err := h.eng.DestroyNamespace(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.eng.CreateNamespace("b", testChunk, []int{0}); err != nil {
		t.Fatalf("chunks not released: %v", err)
	}
}

func TestBindErrors(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("a", testChunk, []int{0})
	ns2, _ := h.eng.CreateNamespace("b", testChunk, []int{0})
	if err := h.eng.Bind(0, ns); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.Bind(0, ns2); err == nil {
		t.Fatal("double bind on function accepted")
	}
	if err := h.eng.Bind(1, ns); err == nil {
		t.Fatal("double bind of namespace accepted")
	}
	if err := h.eng.DestroyNamespace(ns); err == nil {
		t.Fatal("destroyed a bound namespace")
	}
	h.eng.Unbind(0)
	if err := h.eng.DestroyNamespace(ns); err != nil {
		t.Fatal(err)
	}
}
