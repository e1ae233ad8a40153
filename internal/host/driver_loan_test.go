package host_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// The driver lends the caller's payload buffer to the slot for one attempt
// (Driver.lend). These tests pin the contract's edges: what the buffer's
// length must be, that the slot's own pages stay out of it, what a timeout
// does to each side, and that the checker for the one hazard left — a write
// payload changing while it is lent — fires.

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// recoverFrom runs fn as a process on the rig and returns what it panicked
// with, as text ("<nil>" if it did not): a panic in fn itself, or one that an
// I/O it started raised in the driver's callbacks, out of the rig's Run.
func recoverFrom(r *nativeRig, fn func(p *sim.Proc)) (msg string) {
	var got any
	defer func() {
		if v := recover(); v != nil {
			got = v
		}
		msg = fmt.Sprint(got)
	}()
	r.env.Go("test", func(p *sim.Proc) {
		defer func() { got = recover() }()
		fn(p)
	})
	r.env.Run()
	return
}

// TestBufferLengthMustMatchTheTransfer: a short write buffer used to persist
// the tail of whatever an earlier command left in the slot, and a long one to
// spill past the transfer; both are now refused before anything is sent.
func TestBufferLengthMustMatchTheTransfer(t *testing.T) {
	for _, c := range []struct {
		op     uint8
		blocks uint32
		n      int
	}{
		{nvme.IOWrite, 2, nvme.LBASize},
		{nvme.IOWrite, 1, 2 * nvme.LBASize},
		{nvme.IORead, 2, nvme.LBASize},
		{nvme.IORead, 1, nvme.LBASize + 1},
	} {
		r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
		msg := recoverFrom(r, func(p *sim.Proc) { r.drv.IO(p, c.op, 0, c.blocks, make([]byte, c.n), 0) })
		if !strings.Contains(msg, "-byte buffer for a") {
			t.Errorf("op %#x, %d blocks, %d-byte buffer: recovered %q, want a length panic", c.op, c.blocks, c.n, msg)
		}
		if got := r.drv.Counters().Submitted; got != 0 {
			t.Errorf("op %#x: %d commands were sent before the length was checked", c.op, got)
		}
	}
}

// TestPayloadLeavesTheSlotsPagesUntouched: a rig that moves payload touches
// exactly the host memory pages a dataless rig running the same commands
// does — the slots' data buffer pages never materialise — and a queue that
// never sees a payload never makes a window table.
func TestPayloadLeavesTheSlotsPagesUntouched(t *testing.T) {
	run := func(payload bool) (pages int, windows bool) {
		r := newNativeRig(t, host.CentOS("3.10.0"), nil, payload) // no capture, no bytes at all
		r.env.Go("test", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				blocks := uint32(1 + i%8) // one page, two pages, a PRP list
				var w, got []byte
				if payload {
					w, got = fill(int(blocks)*nvme.LBASize, byte(i)), make([]byte, int(blocks)*nvme.LBASize)
				}
				if st := r.drv.IO(p, nvme.IOWrite, uint64(i)*8, blocks, w, 0).Status; st.IsError() {
					t.Fatalf("write %d: %#x", i, st)
				}
				if st := r.drv.IO(p, nvme.IORead, uint64(i)*8, blocks, got, 0).Status; st.IsError() {
					t.Fatalf("read %d: %#x", i, st)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("I/O %d: read back differs from what was written", i)
				}
			}
		})
		r.env.Run()
		return r.h.Mem.TouchedPages(), r.drv.HasWindows(0)
	}
	bare, bareWin := run(false)
	full, fullWin := run(true)
	if full != bare {
		t.Errorf("payload rig touched %d pages, dataless rig %d: payload reached the slots' own pages", full, bare)
	}
	if bareWin || !fullWin {
		t.Errorf("window table: dataless queue %v, payload queue %v; want false, true", bareWin, fullWin)
	}
}

// stalledRig is a rig whose SSD fetches nothing from 200 µs to 200 µs + stall,
// with lba 0..7 holding `stored` from before the window.
func stalledRig(t *testing.T, dcfg host.DriverConfig, stall sim.Time, stored []byte) *nativeRig {
	r := newFaultedRig(t, dcfg,
		fault.Rule{Point: fault.SSDStall, Target: "SN001", At: int64(200 * sim.Microsecond), Duration: int64(stall)})
	r.env.Go("seed", func(p *sim.Proc) {
		if st := r.drv.IO(p, nvme.IOWrite, 0, uint32(len(stored)/nvme.LBASize), stored, 0).Status; st.IsError() {
			t.Errorf("seeding write: %#x", st)
		}
	})
	r.env.RunUntil(190 * sim.Microsecond)
	return r
}

// TestTimedOutWriteFetchedLatePersistsThePayload: the caller has its buffer
// back the moment the episode ends, and may scribble on it; the device, which
// fetches the command only after the stall, still stores the payload as it
// was — from the slot's pages, where the timeout path put it.
func TestTimedOutWriteFetchedLatePersistsThePayload(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = sim.Millisecond
	r := stalledRig(t, dcfg, 10*sim.Millisecond, fill(2*nvme.LBASize, 1))
	payload := fill(2*nvme.LBASize, 50)
	want := bytes.Clone(payload)
	r.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		oc := r.drv.IO(p, nvme.IOWrite, 0, 2, payload, 0)
		if !oc.TimedOut {
			t.Fatalf("outcome %+v, want a timeout", oc)
		}
		clear(payload) // the caller's again
	})
	r.env.Run() // the straggler is fetched and completes
	if c := r.drv.Counters(); c.Stragglers != 1 {
		t.Fatalf("counters %+v, want one straggler", c)
	}
	if got := r.dev.CaptureRead(1, 0, 2); !bytes.Equal(got, want) {
		t.Fatal("the write that was fetched late did not persist the payload it was submitted with")
	}
}

// TestTimedOutReadLeavesTheCallersBufferAlone: after the attempt ends the
// buffer is the caller's, whatever the device does later; the straggler's
// bytes land in the slot's own memory.
func TestTimedOutReadLeavesTheCallersBufferAlone(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = sim.Millisecond
	stored := fill(2*nvme.LBASize, 1)
	r := stalledRig(t, dcfg, 10*sim.Millisecond, stored)
	buf := bytes.Repeat([]byte{0xEE}, 2*nvme.LBASize)
	var slot uint16
	r.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		oc := r.drv.IO(p, nvme.IORead, 0, 2, buf, 0)
		if !oc.TimedOut {
			t.Fatalf("outcome %+v, want a timeout", oc)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, len(buf))) {
			t.Fatal("a read the device never started changed the buffer")
		}
		_, zombies, _, _ := r.drv.QueueState(0)
		if len(zombies) != 1 {
			t.Fatalf("zombies %v, want the one timed-out CID", zombies)
		}
		slot = zombies[0]
		for i := range buf {
			buf[i] = 0x55 // the caller's again
		}
	})
	r.env.Run()
	if c := r.drv.Counters(); c.Stragglers != 1 {
		t.Fatalf("counters %+v, want one straggler", c)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x55}, len(buf))) {
		t.Fatal("the straggler's DMA landed in a buffer the caller had back")
	}
	got := make([]byte, len(stored))
	r.h.Mem.Read(r.drv.SlotBuf(0, slot), got)
	if !bytes.Equal(got, stored) {
		t.Fatal("the straggler's bytes are not in the slot's own memory")
	}
}

// TestRetriedReadIsWhole: the attempt that times out and the one that
// succeeds lend the same buffer to different slots; what comes back is the
// stored data, all of it.
func TestRetriedReadIsWhole(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout, dcfg.MaxRetries, dcfg.RetryBackoff = sim.Millisecond, 10, 500*sim.Microsecond
	stored := fill(8*nvme.LBASize, 1)
	r := stalledRig(t, dcfg, 4*sim.Millisecond, stored)
	r.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		buf := make([]byte, len(stored))
		oc := r.drv.IO(p, nvme.IORead, 0, 8, buf, 0)
		if oc.Status.IsError() || oc.Attempts < 2 {
			t.Fatalf("outcome %+v, want success after a timeout", oc)
		}
		if !bytes.Equal(buf, stored) {
			t.Fatal("retried read returned something other than the stored data")
		}
	})
	r.env.Run()
}

// TestLoanCheckerCatchesAWriteBufferChangedInFlight plants the violation the
// checker is for: a second process changes a write payload between doorbell
// and completion. Under the race detector (make race) the driver must panic
// when it takes the buffer back; other builds do not carry the check.
func TestLoanCheckerCatchesAWriteBufferChangedInFlight(t *testing.T) {
	if !host.CheckLoans {
		t.Skip("loans are checked in race-detector builds only")
	}
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
	payload := fill(nvme.LBASize, 3)
	r.env.Go("meddler", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond) // a 4 KiB write takes ~15 µs
		payload[100] ^= 0xFF
	})
	msg := recoverFrom(r, func(p *sim.Proc) { r.drv.IO(p, nvme.IOWrite, 0, 1, payload, 0) })
	if !strings.Contains(msg, "queue 1 slot") || !strings.Contains(msg, "changed while the command was in flight") {
		t.Fatalf("recovered %q, want the loan checker naming the slot", msg)
	}
}

// TestSlotFreedWhileLentPanics: in every build.
func TestSlotFreedWhileLentPanics(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, true)
	msg := recoverFrom(r, func(p *sim.Proc) { r.drv.GiveWhileLent(p, 0) })
	if !strings.Contains(msg, "still lent") {
		t.Fatalf("recovered %q, want the give-while-lent panic", msg)
	}
}
