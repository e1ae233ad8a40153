package ssd

import (
	"bytes"
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
		if h.env.Faults().InjectedBy(fault.WriteTorn) != 1 {
			t.Fatal("torn injection not counted")
		}
	})
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
		if !bytes.Equal(got, blkB) {
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

// A tracer and a fault injector are probes on the fused path, not reasons
// to leave it; only the classic-path override (or a pluggable medium, which
// blocks a process) selects the process-per-command code.
func TestObserversDoNotGateFusedPath(t *testing.T) {
	env := sim.NewEnv(7)
	env.SetTracer(trace.NewDigest())
	env.SetFaults(fault.New(fault.Rule{Point: fault.SSDStall, Duration: 1}))
	if !New(env, P4510("SN001")).fast {
		t.Fatal("SSD built on a traced, faulted environment is off the fused path")
	}
	env.SetFastPath(false)
	if New(env, P4510("SN001")).fast {
		t.Fatal("SetFastPath(false) no longer selects the classic path")
	}
}
