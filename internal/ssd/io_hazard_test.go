package ssd

import (
	"bytes"
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// hazardHarness builds a harness with a fault injector attached before the
// SSD is constructed, so the data-hazard hooks see it.
func hazardHarness(t *testing.T, rules ...fault.Rule) *harness {
	env := sim.NewEnv(7)
	env.SetFaults(fault.New(rules...))
	return newHarnessOn(t, env, P4510("SN001"))
}

// stored is what the copying reference path (readBytes) says n bytes from
// namespace block slba hold: the data path's reads, which DMA straight from
// the stored blocks, must return exactly this.
func (h *harness) stored(nsid uint32, slba uint64, n int) []byte {
	return h.dev.readBytes((h.dev.ns(nsid).startLBA+slba)*BlockSize, n)
}

func TestMediaCorruptFlipsReadByte(t *testing.T) {
	h := hazardHarness(t, fault.Rule{Point: fault.MediaCorrupt, Target: "SN001"})
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		data := make([]byte, BlockSize)
		for i := range data {
			data[i] = byte(i)
		}
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 10, data, buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IORead, nsid, 10, make([]byte, BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("corrupted read must still complete with success, got %#x", cpl.Status)
		}
		got := make([]byte, BlockSize)
		h.mem.Read(rbuf, got)
		diff := 0
		for i := range got {
			if got[i] != data[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("media-corrupt changed %d bytes, want exactly 1", diff)
		}
		// The damage is to the bytes in flight, never to the stored block.
		want := h.stored(nsid, 10, BlockSize)
		if !bytes.Equal(want, data) {
			t.Fatal("a corrupt read damaged the stored block")
		}
		want[BlockSize/2] ^= 0xA5
		if !bytes.Equal(got, want) {
			t.Fatal("corrupt read is not the stored block with the byte at its middle flipped")
		}
		if h.env.Faults().InjectedBy(fault.MediaCorrupt) != 1 {
			t.Fatal("corrupt injection not counted")
		}
		// Single-shot rule: the next read is clean.
		if cpl := h.rw(p, nvme.IORead, nsid, 10, make([]byte, BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got, data) {
			t.Fatal("second read should be clean after single-shot corrupt rule")
		}
	})
}

func TestTornWritePersistsFirstHalf(t *testing.T) {
	h := hazardHarness(t, fault.Rule{Point: fault.WriteTorn, Nth: 2})
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		old := bytes.Repeat([]byte{0x11}, BlockSize)
		next := bytes.Repeat([]byte{0x22}, BlockSize)
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 7, old, buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		// Second write tears: acked success, only the first half lands.
		if cpl := h.rw(p, nvme.IOWrite, nsid, 7, next, buf); cpl.Status.IsError() {
			t.Fatalf("torn write must still ack success, got %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IORead, nsid, 7, make([]byte, BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		got := make([]byte, BlockSize)
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got[:BlockSize/2], next[:BlockSize/2]) {
			t.Fatal("torn write should persist the first half of the new data")
		}
		if !bytes.Equal(got[BlockSize/2:], old[BlockSize/2:]) {
			t.Fatal("torn write should leave the old data in the tail")
		}
		if !bytes.Equal(got, h.stored(nsid, 7, BlockSize)) {
			t.Fatal("read differs from the copying reference path")
		}
		if h.env.Faults().InjectedBy(fault.WriteTorn) != 1 {
			t.Fatal("torn injection not counted")
		}
	})
}

// TestTornMultiBlockWritePersistsWholeBlocksOfThePrefixOnly: of a four-block
// write torn at half, the first two blocks are stored whole (by exchange) and
// the last two keep the old data; of a three-block one, the first block is
// stored whole, the second half-way (by copy) and the third not at all.
func TestTornMultiBlockWritePersistsWholeBlocksOfThePrefixOnly(t *testing.T) {
	for _, blocks := range []int{4, 3} {
		h := hazardHarness(t, fault.Rule{Point: fault.WriteTorn, Nth: 2})
		h.run(func(p *sim.Proc) {
			nsid := h.createNS(p, 1<<20)
			h.createIOQueues(p, 64)
			n := blocks * BlockSize
			old := bytes.Repeat([]byte{0x11}, n)
			next := bytes.Repeat([]byte{0x22}, n)
			buf := h.mem.AllocPages(blocks)
			for _, data := range [][]byte{old, next} {
				if cpl := h.rw(p, nvme.IOWrite, nsid, 7, data, buf); cpl.Status.IsError() {
					t.Fatalf("write: %#x", cpl.Status)
				}
			}
			want := append(append([]byte{}, next[:n/2]...), old[n/2:]...)
			if !bytes.Equal(h.stored(nsid, 7, n), want) {
				t.Fatalf("%d-block torn write: the store is not new data to the half, old data after", blocks)
			}
			rbuf := h.mem.AllocPages(blocks)
			if cpl := h.rw(p, nvme.IORead, nsid, 7, make([]byte, n), rbuf); cpl.Status.IsError() {
				t.Fatalf("read: %#x", cpl.Status)
			}
			got := make([]byte, n)
			h.mem.Read(rbuf, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-block torn write: read differs from the store", blocks)
			}
		})
	}
}

func TestMisdirectedReadServesNeighbour(t *testing.T) {
	h := hazardHarness(t, fault.Rule{Point: fault.ReadMisdirect})
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		blkA := bytes.Repeat([]byte{0xAA}, BlockSize)
		blkB := bytes.Repeat([]byte{0xBB}, BlockSize)
		buf := h.mem.AllocPages(2)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 20, append(append([]byte{}, blkA...), blkB...), buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		rbuf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IORead, nsid, 20, make([]byte, BlockSize), rbuf); cpl.Status.IsError() {
			t.Fatalf("misdirected read must still complete with success, got %#x", cpl.Status)
		}
		got := make([]byte, BlockSize)
		h.mem.Read(rbuf, got)
		if !bytes.Equal(got, blkB) || !bytes.Equal(got, h.stored(nsid, 21, BlockSize)) {
			t.Fatal("misdirected read should serve the neighbouring block's data")
		}
		if h.env.Faults().InjectedBy(fault.ReadMisdirect) != 1 {
			t.Fatal("misdirect injection not counted")
		}
	})
}

func TestDataHazardsInertWithoutCaptureData(t *testing.T) {
	env := sim.NewEnv(7)
	env.SetFaults(fault.New(
		fault.Rule{Point: fault.MediaCorrupt, Count: -1},
		fault.Rule{Point: fault.WriteTorn, Count: -1},
		fault.Rule{Point: fault.ReadMisdirect, Count: -1},
	))
	cfg := P4510("SN001")
	cfg.CaptureData = false
	h := newHarnessOn(t, env, cfg)
	h.run(func(p *sim.Proc) {
		nsid := h.createNS(p, 1<<20)
		h.createIOQueues(p, 64)
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, nvme.IOWrite, nsid, 3, make([]byte, BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("write: %#x", cpl.Status)
		}
		if cpl := h.rw(p, nvme.IORead, nsid, 3, make([]byte, BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("read: %#x", cpl.Status)
		}
		// Without captured data there is no payload to damage: hazard rules
		// must count zero injections, not fire vacuously.
		if n := env.Faults().Injected(); n != 0 {
			t.Fatalf("hazard rules fired %d times on a dataless rig", n)
		}
	})
}

// A tracer and a fault injector are probes on the data path, not reasons to
// fall back to a process per command: with both attached, I/O spawns no
// process at all, and the chain still leaves its payload, trace records and
// stats.
func TestObserversDoNotGateFusedPath(t *testing.T) {
	t.Run("flash", func(t *testing.T) {
		env := sim.NewEnv(7)
		var dump bytes.Buffer
		tr := trace.New(trace.Options{Dump: &dump})
		env.SetTracer(tr)
		env.SetFaults(fault.New(fault.Rule{Point: fault.SSDStall, Duration: 1}))
		h := newHarnessOn(t, env, P4510("SN001"))
		var before int
		h.run(func(p *sim.Proc) {
			nsid := h.createNS(p, 1<<20)
			h.createIOQueues(p, 64)
			data, got := bytes.Repeat([]byte{0xC3}, BlockSize), make([]byte, BlockSize)
			buf, rbuf := h.mem.AllocPages(1), h.mem.AllocPages(1)
			tr.Flush()
			before = dump.Len()
			for _, cpl := range []nvme.Completion{
				h.rw(p, nvme.IOWrite, nsid, 5, data, buf),
				h.submit(p, 1, nvme.Command{Opcode: nvme.IOFlush, NSID: nsid}),
				h.rw(p, nvme.IORead, nsid, 5, got, rbuf),
			} {
				if cpl.Status.IsError() {
					t.Fatalf("write, flush or read failed: %#x", cpl.Status)
				}
			}
			if h.mem.Read(rbuf, got); !bytes.Equal(got, data) {
				t.Fatal("payload did not round-trip")
			}
		})
		tr.Flush()
		io := dump.String()[before:]
		if strings.Count(io, " ssd    issue") != 2 || strings.Count(io, " ssd    complete") != 2 {
			t.Errorf("want an issue and a complete record for the write and the read, got:\n%s", io)
		}
		if n := strings.Count(io, " spawn "); n != 0 {
			t.Errorf("%d processes spawned, want none:\n%s", n, io)
		}
		if h.dev.ReadStats.Ops != 1 || h.dev.WriteStats.Ops != 1 {
			t.Errorf("device stats count %d reads, %d writes; want one each", h.dev.ReadStats.Ops, h.dev.WriteStats.Ops)
		}
	})
}
