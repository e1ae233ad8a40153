package ssd

import (
	"bytes"
	"fmt"
	"testing"

	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
)

// harness is a minimal synchronous NVMe host used to drive the SSD model in
// unit tests, over the shared initiator: admin + one I/O queue pair,
// interrupt-driven completions, sequential CIDs, no slot accounting.
type harness struct {
	t   *testing.T
	env *sim.Env
	mem *hostmem.Memory
	dev *SSD

	conn    nvmei.Conn
	qs      map[uint16]*nvmei.Queue
	nextCID uint16
	waiting map[uint16]*sim.Event
}

func newHarness(t *testing.T, cfg Config) *harness {
	return newHarnessOn(t, sim.NewEnv(7), cfg)
}

// newHarnessOn builds the harness on a caller-provided environment, so tests
// can attach a fault injector (or tracer) before the SSD is constructed.
func newHarnessOn(t *testing.T, env *sim.Env, cfg Config) *harness {
	mem := hostmem.New(256 << 20)
	root := pcie.NewRoot(env, mem)
	h := &harness{
		t: t, env: env, mem: mem,
		qs:      make(map[uint16]*nvmei.Queue),
		waiting: make(map[uint16]*sim.Event),
	}
	dev := New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := pcie.Connect(env, link, root, h.irq, nil, dev)
	dev.Attach(port)
	h.dev = dev
	h.conn = nvmei.Conn{Env: env, Mem: mem, Port: port}

	// Admin queue pair.
	asq := mem.AllocPages(1)
	h.qs[0] = h.conn.NewQueue(0, 32, asq, mem.AllocPages(1))
	h.qs[0].Enable()
	return h
}

func (h *harness) irq(fn pcie.FuncID, vec int) {
	q := h.qs[uint16(vec)]
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

// submit issues cmd on queue qid and waits for its completion.
func (h *harness) submit(p *sim.Proc, qid uint16, cmd nvme.Command) nvme.Completion {
	q := h.qs[qid]
	h.nextCID++
	cmd.CID = h.nextCID
	q.Push(&cmd)
	ev := h.env.NewEvent()
	h.waiting[cmd.CID] = ev
	q.Ring()
	return p.Wait(ev).(nvme.Completion)
}

// createIOQueues makes I/O queue pair 1 with the given depth.
func (h *harness) createIOQueues(p *sim.Proc, depth uint32) {
	cqBase := h.mem.AllocPages(nvmei.RingPages(depth, nvme.CQESize))
	q := h.conn.NewQueue(1, depth, h.mem.AllocPages(nvmei.RingPages(depth, nvme.SQESize)), cqBase)
	err := q.Create(p, func(p *sim.Proc, cmd nvme.Command) nvme.Completion { return h.submit(p, 0, cmd) })
	if err != nil {
		h.t.Fatal(err)
	}
	h.qs[1] = q
}

// createNS makes a namespace of n blocks and returns its NSID.
func (h *harness) createNS(p *sim.Proc, blocks uint64) uint32 {
	page := h.mem.AllocPages(1)
	h.mem.WriteU64(page, blocks)
	cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminNSManagement, PRP1: page})
	if cpl.Status.IsError() {
		h.t.Fatalf("ns create: status %#x", cpl.Status)
	}
	return cpl.DW0
}

// rw issues a read or write of the given buffer.
func (h *harness) rw(p *sim.Proc, op uint8, nsid uint32, slba uint64, data []byte, buf uint64) nvme.Completion {
	p1, p2, _ := nvme.BuildPRPs(h.mem, buf, len(data))
	if op == nvme.IOWrite {
		h.mem.Write(buf, data)
	}
	cmd := nvme.Command{Opcode: op, NSID: nsid, PRP1: p1, PRP2: p2}
	cmd.SetSLBA(slba)
	cmd.SetNLB(uint32(len(data) / BlockSize))
	return h.submit(p, 1, cmd)
}

func (h *harness) run(fn func(p *sim.Proc)) {
	h.env.Go("test", fn)
	h.env.Run()
}

func TestIdentifyController(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		page := h.mem.AllocPages(1)
		cpl := h.submit(p, 0, nvme.Command{
			Opcode: nvme.AdminIdentify, PRP1: page, CDW10: nvme.CNSController,
		})
		if cpl.Status.IsError() {
			t.Fatalf("identify failed: %#x", cpl.Status)
		}
		buf := make([]byte, nvme.IdentifyPageSize)
		h.mem.Read(page, buf)
		ic := nvme.DecodeIdentifyController(buf)
		if ic.Serial != "SN001" || ic.Firmware != "VDV10131" {
			t.Fatalf("identify %+v", ic)
		}
	})
}

func TestNamespaceLifecycle(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		id1 := h.createNS(p, 1<<20)
		id2 := h.createNS(p, 1<<20)
		if id1 != 1 || id2 != 2 {
			t.Fatalf("nsids %d %d", id1, id2)
		}
		got := h.dev.Namespaces()
		if len(got) != 2 {
			t.Fatalf("namespaces %v", got)
		}
		cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminNSManagement, NSID: id1, CDW10: 1})
		if cpl.Status.IsError() {
			t.Fatalf("delete: %#x", cpl.Status)
		}
		if got := h.dev.Namespaces(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("namespaces after delete %v", got)
		}
	})
}

func TestNamespaceCapacityEnforced(t *testing.T) {
	cfg := P4510("SN001")
	cfg.CapacityBytes = 8 << 20 // tiny device
	h := newHarness(t, cfg)
	h.run(func(p *sim.Proc) {
		page := h.mem.AllocPages(1)
		h.mem.WriteU64(page, 4096) // way beyond 2048 blocks
		cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminNSManagement, PRP1: page})
		if cpl.Status != nvme.StatusNSInsufficientCap {
			t.Fatalf("status %#x, want insufficient capacity", cpl.Status)
		}
	})
}

func TestWriteReadDataIntegrity(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		data := make([]byte, 8*BlockSize)
		for i := range data {
			data[i] = byte(i * 31)
		}
		buf := h.mem.AllocPages(8)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 100, data, buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(8)
		if cpl := h.rw(p, nvme.IORead, nsid, 100, make([]byte, len(data)), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, len(data))
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got, data) {
			t.Fatal("read back differs from written data")
		}
	})
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		rbuf := h.mem.AllocPages(2)
		h.mem.Write(rbuf, bytes.Repeat([]byte{0xFF}, 2*BlockSize)) // pre-dirty the buffer
		// Block 5 was never written; block 6 was, so the read crosses from
		// the shared zero block into a stored one.
		if cpl := h.rw(p, nvme.IOWrite, nsid, 6, bytes.Repeat([]byte{7}, BlockSize), h.mem.AllocPages(1)); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		if cpl := h.rw(p, nvme.IORead, nsid, 5, make([]byte, 2*BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, 2*BlockSize)
		h.mem.Read(rbuf, got)
		want := append(make([]byte, BlockSize), bytes.Repeat([]byte{7}, BlockSize)...)
		if !bytes.Equal(got, want) || !bytes.Equal(got, h.stored(nsid, 5, len(got))) {
			t.Fatal("unwritten block did not read as zeroes beside its written neighbour")
		}
		if zeroBlock != (block{}) {
			t.Fatal("the shared zero block was written")
		}
	})
}

func TestLBAOutOfRange(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1000)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		cpl := h.rw(p, nvme.IORead, nsid, 999, make([]byte, 2*BlockSize), buf)
		if cpl.Status != nvme.StatusLBAOutOfRange {
			t.Fatalf("status %#x, want LBA out of range", cpl.Status)
		}
	})
}

// TestInvalidNamespaceRejected: the NSID in a command indexes the namespace
// table. Zero, an id never allocated (next to the table's end and far from
// it), the broadcast value and a deleted namespace's id all name nothing, on
// the I/O path, the admin path and the crash manager's capture accessors.
func TestInvalidNamespaceRejected(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		gone, live := h.createNS(p, 1000), h.createNS(p, 1000)
		if cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminNSManagement, NSID: gone, CDW10: 1}); cpl.Status.IsError() {
			t.Fatalf("delete namespace %d: %#x", gone, cpl.Status)
		}
		for _, nsid := range []uint32{0, gone, live + 1, 42, 0xFFFFFFFF} {
			for name, cpl := range map[string]nvme.Completion{
				"read":         h.rw(p, nvme.IORead, nsid, 0, make([]byte, BlockSize), buf),
				"write":        h.rw(p, nvme.IOWrite, nsid, 0, make([]byte, BlockSize), buf),
				"write zeroes": h.submit(p, 1, nvme.Command{Opcode: nvme.IOWriteZeroes, NSID: nsid}),
				"identify":     h.submit(p, 0, nvme.Command{Opcode: nvme.AdminIdentify, NSID: nsid, PRP1: buf, CDW10: nvme.CNSNamespace}),
				"format":       h.submit(p, 0, nvme.Command{Opcode: nvme.AdminFormatNVM, NSID: nsid}),
				"delete":       h.submit(p, 0, nvme.Command{Opcode: nvme.AdminNSManagement, NSID: nsid, CDW10: 1}),
			} {
				if cpl.Status != nvme.StatusInvalidNamespace {
					t.Errorf("%s on NSID %#x: status %#x, want invalid namespace", name, nsid, cpl.Status)
				}
			}
			h.dev.CaptureWrite(nsid, 0, make([]byte, BlockSize))
			h.dev.CaptureZero(nsid, 0, 1)
			if got := h.dev.CaptureRead(nsid, 0, 1); got != nil {
				t.Errorf("CaptureRead on NSID %#x returned %d bytes", nsid, len(got))
			}
		}
		if cpl := h.rw(p, nvme.IORead, live, 0, make([]byte, BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("read of the live namespace %d: %#x", live, cpl.Status)
		}
		if got := h.dev.Namespaces(); len(got) != 1 || got[0] != live {
			t.Fatalf("namespaces %v, want [%d]", got, live)
		}
	})
}

func TestQD1ReadLatencyCalibration(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		// Warm up once, then measure.
		h.rw(p, nvme.IORead, nsid, 0, make([]byte, BlockSize), buf)
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			h.rw(p, nvme.IORead, nsid, uint64(i), make([]byte, BlockSize), buf)
		}
		avg := float64(p.Now()-start) / n / 1000 // us
		// Device-level 4K QD1 read should be ~70-74us: the paper's 77.2us
		// native figure includes host-driver overhead added by internal/host.
		if avg < 68 || avg > 76 {
			t.Fatalf("QD1 4K read latency %.1fus, want ~70-74us", avg)
		}
	})
}

func TestRandomReadIOPSSaturation(t *testing.T) {
	cfg := P4510("SN001")
	cfg.CaptureData = false
	h := newHarness(t, cfg)
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<22)
		h.createIOQueues(p, 1024)
		// Issue 512 outstanding 4K reads continuously for 50ms of virtual
		// time; expect ~640K IOPS (45 dies / 69us NAND + front-end costs).
		const outstanding = 512
		stop := p.Now() + 50*sim.Millisecond
		var completed int
		var spawn func(i int)
		buf := h.mem.AllocPages(1)
		rng := h.env.Rand("workload")
		for i := 0; i < outstanding; i++ {
			h.env.Go(fmt.Sprintf("job%d", i), func(jp *sim.Proc) {
				for jp.Now() < stop {
					lba := uint64(rng.Intn(1 << 22))
					h.rw(jp, nvme.IORead, nsid, lba, make([]byte, BlockSize), buf)
					if jp.Now() <= stop {
						completed++
					}
				}
			})
		}
		_ = spawn
		p.Sleep(55 * sim.Millisecond)
		iops := float64(completed) / 0.050
		if iops < 560_000 || iops > 700_000 {
			t.Fatalf("random read IOPS %.0f, want ~640K", iops)
		}
	})
}

func TestSequentialReadBandwidth(t *testing.T) {
	cfg := P4510("SN001")
	cfg.CaptureData = false
	h := newHarness(t, cfg)
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<22)
		h.createIOQueues(p, 1024)
		const jobs = 64 // 64 outstanding 128K reads
		stop := p.Now() + 50*sim.Millisecond
		var bytesDone int64
		buf := h.mem.AllocPages(32)
		for i := 0; i < jobs; i++ {
			next := uint64(i * 32)
			h.env.Go(fmt.Sprintf("job%d", i), func(jp *sim.Proc) {
				for jp.Now() < stop {
					h.rw(jp, nvme.IORead, nsid, next, make([]byte, 32*BlockSize), buf)
					if jp.Now() <= stop {
						bytesDone += 32 * BlockSize
					}
					next = (next + jobs*32) % (1 << 21)
				}
			})
		}
		p.Sleep(55 * sim.Millisecond)
		gbps := float64(bytesDone) / 0.050 / 1e9
		if gbps < 3.1 || gbps > 3.5 {
			t.Fatalf("seq read bandwidth %.2f GB/s, want ~3.3", gbps)
		}
	})
}

func TestSequentialWriteBandwidth(t *testing.T) {
	cfg := P4510("SN001")
	cfg.CaptureData = false
	h := newHarness(t, cfg)
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<22)
		h.createIOQueues(p, 1024)
		const jobs = 64
		stop := p.Now() + 50*sim.Millisecond
		var bytesDone int64
		buf := h.mem.AllocPages(32)
		for i := 0; i < jobs; i++ {
			next := uint64(i * 32)
			h.env.Go(fmt.Sprintf("job%d", i), func(jp *sim.Proc) {
				for jp.Now() < stop {
					h.rw(jp, nvme.IOWrite, nsid, next, make([]byte, 32*BlockSize), buf)
					if jp.Now() <= stop {
						bytesDone += 32 * BlockSize
					}
					next = (next + jobs*32) % (1 << 21)
				}
			})
		}
		p.Sleep(55 * sim.Millisecond)
		gbps := float64(bytesDone) / 0.050 / 1e9
		if gbps < 1.35 || gbps > 1.55 {
			t.Fatalf("seq write bandwidth %.2f GB/s, want ~1.45", gbps)
		}
	})
}

func TestFirmwareUpgradeCycle(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		// Stage a new image whose first 8 bytes carry the version.
		img := append([]byte("VDV10184"), make([]byte, 4096-8)...)
		page := h.mem.AllocPages(1)
		h.mem.Write(page, img)
		cpl := h.submit(p, 0, nvme.Command{
			Opcode: nvme.AdminFWDownload, PRP1: page,
			CDW10: uint32(len(img)/4) - 1, CDW11: 0,
		})
		if cpl.Status.IsError() {
			t.Fatalf("download: %#x", cpl.Status)
		}
		cpl = h.submit(p, 0, nvme.Command{Opcode: nvme.AdminFWCommit, CDW10: 3 << 3})
		if cpl.Status.IsError() {
			t.Fatalf("commit: %#x", cpl.Status)
		}
		start := p.Now()
		ev := h.env.NewEvent()
		p.Sleep(1) // let the reset begin
		if h.dev.Ready() {
			t.Fatal("device still ready during firmware activation")
		}
		h.dev.NotifyResetDone(func() { ev.Trigger(nil) })
		p.Wait(ev)
		resetDur := p.Now() - start
		if resetDur < 5*sim.Second || resetDur > 8*sim.Second {
			t.Fatalf("reset window %.2fs, want 5-8s", float64(resetDur)/1e9)
		}
		if h.dev.FirmwareVersion() != "VDV10184" {
			t.Fatalf("firmware %q after upgrade", h.dev.FirmwareVersion())
		}
	})
}

// stagedFW assembles the staged firmware image: its kept pages, and zeroes
// wherever none is kept, up to the image's length.
func (d *SSD) stagedFW() []byte {
	img := make([]byte, d.fwLen)
	for i, pg := range d.fwPages {
		if pg != nil {
			copy(img[i*BlockSize:], pg[:])
		}
	}
	return img
}

// keptFWPages counts the pages the staged image keeps.
func (d *SSD) keptFWPages() int {
	n := 0
	for _, pg := range d.fwPages {
		if pg != nil {
			n++
		}
	}
	return n
}

// downloadFW stages chunk at byte offset off with one FW Download through
// host page page.
func (h *harness) downloadFW(p *sim.Proc, page uint64, off int, chunk []byte) {
	h.t.Helper()
	h.mem.Write(page, chunk)
	cpl := h.submit(p, 0, nvme.Command{
		Opcode: nvme.AdminFWDownload, PRP1: page,
		CDW10: uint32(len(chunk)/4) - 1, CDW11: uint32(off / 4),
	})
	if cpl.Status.IsError() {
		h.t.Fatalf("download of %d bytes at %d: %#x", len(chunk), off, cpl.Status)
	}
}

// TestFirmwareStagedInChunks: chunks staged in any order assemble exactly
// the image, and a gap that a chunk past the end leaves reads zero until it
// is filled.
func TestFirmwareStagedInChunks(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		img := make([]byte, 5*4096)
		for i := range img {
			img[i] = byte(i*7 + 1)
		}
		var want []byte
		page := h.mem.AllocPages(1)
		for _, c := range []int{1, 2, 4, 0, 3} {
			chunk := img[c*4096 : (c+1)*4096]
			h.downloadFW(p, page, c*4096, chunk)
			if end := (c + 1) * 4096; end > len(want) {
				want = append(want, make([]byte, end-len(want))...)
			}
			copy(want[c*4096:], chunk)
			if !bytes.Equal(h.dev.stagedFW(), want) {
				t.Fatalf("after chunk %d the staged bytes differ from the chunks sent", c)
			}
		}
		if !bytes.Equal(want, img) {
			t.Fatal("test bug: chunks do not cover the image")
		}
	})
}

// TestFirmwareStagingKeepsWhatItHolds: the staged image keeps a page only
// once a non-zero byte lands in it. A 512 KiB image that is zero past its
// version keeps one page; chunks that straddle pages, sent out of order, read
// back exactly; and a zero chunk over a kept page zeroes it.
func TestFirmwareStagingKeepsWhatItHolds(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		page := h.mem.AllocPages(2)
		chunk := make([]byte, 4096)
		for off := 0; off < 512<<10; off += len(chunk) {
			clear(chunk)
			if off == 0 {
				copy(chunk, "VDV20001")
			}
			h.downloadFW(p, page, off, chunk)
		}
		if got := h.dev.keptFWPages(); got != 1 {
			t.Errorf("a 512 KiB image zero past its version keeps %d pages, want 1", got)
		}
		want := make([]byte, 512<<10)
		copy(want, "VDV20001")
		if !bytes.Equal(h.dev.stagedFW(), want) {
			t.Fatal("the staged image differs from the one sent")
		}

		// Chunks of a page and a half at odd dword offsets, last first.
		piece := make([]byte, 6144)
		for _, off := range []int{5 * 4096, 4096 + 1024} {
			for i := range piece {
				piece[i] = byte(off + i | 1)
			}
			h.downloadFW(p, page, off, piece)
			copy(want[off:], piece)
		}
		if !bytes.Equal(h.dev.stagedFW(), want) {
			t.Fatal("out-of-order chunks across page edges differ from the ones sent")
		}

		// Zeroes over the kept pages 1 and 2 and part of 3.
		zero := make([]byte, 2*4096+512)
		h.downloadFW(p, page, 4096, zero)
		copy(want[4096:], zero)
		if !bytes.Equal(h.dev.stagedFW(), want) {
			t.Fatal("a zero chunk over kept pages did not zero them")
		}
	})
}

// TestAllZeroFirmwareImageFailsCommit: an image that is zeroes throughout
// keeps no page, and its commit fails as one with no version does.
func TestAllZeroFirmwareImageFailsCommit(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		page := h.mem.AllocPages(1)
		for off := 0; off < 64<<10; off += 4096 {
			h.downloadFW(p, page, off, make([]byte, 4096))
		}
		if got := h.dev.keptFWPages(); got != 0 {
			t.Errorf("an all-zero image keeps %d pages, want 0", got)
		}
		cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminFWCommit, CDW10: 3 << 3})
		if cpl.Status != nvme.StatusInvalidFWImage {
			t.Fatalf("commit of an all-zero image: status %#x, want %#x", cpl.Status, nvme.StatusInvalidFWImage)
		}
	})
}

func TestFWCommitWithoutImageFails(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		cpl := h.submit(p, 0, nvme.Command{Opcode: nvme.AdminFWCommit})
		if cpl.Status != nvme.StatusInvalidFWImage {
			t.Fatalf("status %#x", cpl.Status)
		}
	})
}

func TestWriteZeroes(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1000)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		data := bytes.Repeat([]byte{0xAB}, BlockSize)
		h.rw(p, nvme.IOWrite, nsid, 7, data, buf)
		cmd := nvme.Command{Opcode: nvme.IOWriteZeroes, NSID: nsid}
		cmd.SetSLBA(7)
		cmd.SetNLB(1)
		if cpl := h.submit(p, 1, cmd); cpl.Status.IsError() {
			t.Fatalf("write zeroes: %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(1)
		h.rw(p, nvme.IORead, nsid, 7, make([]byte, BlockSize), rbuf)
		got := make([]byte, BlockSize)
		h.mem.Read(rbuf, got)
		for _, b := range got {
			if b != 0 {
				t.Fatal("block not zeroed")
			}
		}
	})
}

func TestFlushAndStats(t *testing.T) {
	h := newHarness(t, P4510("SN001"))
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1000)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		h.rw(p, nvme.IOWrite, nsid, 0, make([]byte, BlockSize), buf)
		h.rw(p, nvme.IORead, nsid, 0, make([]byte, BlockSize), buf)
		cmd := nvme.Command{Opcode: nvme.IOFlush, NSID: nsid}
		if cpl := h.submit(p, 1, cmd); cpl.Status.IsError() {
			t.Fatalf("flush: %#x", cpl.Status)
		}
		if h.dev.Ops.Reads != 1 || h.dev.Ops.Writes != 1 {
			t.Fatalf("stats r=%d w=%d", h.dev.Ops.Reads, h.dev.Ops.Writes)
		}
	})
}
