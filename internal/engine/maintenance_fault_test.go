package engine

import (
	"fmt"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// TestIdleQuiesceResume exercises the maintenance surface with zero
// commands in flight: the gate closes immediately, resume is a pure gate
// reopen (no queue rebuild), and the data path works across the round
// trip — twice, to catch state leaking between cycles.
func TestIdleQuiesceResume(t *testing.T) {
	h := newFeHarness(t, 1)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		buf := h.mem.AllocPages(1)
		for round := 0; round < 2; round++ {
			before := p.Now()
			h.eng.QuiesceBackend(p, 0)
			if p.Now() != before {
				t.Fatalf("round %d: idle quiesce took %v, want instant", round, p.Now()-before)
			}
			if h.eng.BackendReady(0) {
				t.Fatalf("round %d: backend reports ready while quiesced", round)
			}
			if err := h.eng.ResumeBackend(p, 0); err != nil {
				t.Fatalf("round %d: resume: %v", round, err)
			}
			if !h.eng.BackendReady(0) {
				t.Fatalf("round %d: backend not ready after resume", round)
			}
			if cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
				t.Fatalf("round %d: read after resume: %#x", round, cpl.Status)
			}
		}
	})
}

// TestResumeBackendReinitErrorPath forces the post-reset queue rebuild to
// fail (injected admin error on the SSD) and checks the contract
// documented on ResumeBackend: the error is surfaced, the gate stays
// closed so no host I/O escapes into a half-initialised backend, and a
// retry once the fault clears completes the bring-up.
func TestResumeBackendReinitErrorPath(t *testing.T) {
	// Arm one admin-command failure well after construction-time bring-up
	// and the firmware download/commit below, so the first command it can
	// hit is the Identify that opens the re-init sequence.
	env := sim.NewEnv(11)
	env.SetFaults(fault.New(fault.Rule{
		Point:  fault.SSDAdmin,
		Target: "SN000",
		At:     int64(1 * sim.Second),
		Count:  1,
		Status: uint16(nvme.StatusInternal),
	}))
	h := newFeHarnessEnv(t, env, 1, nil)
	ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
	h.eng.Bind(0, ns)
	h.run(func(p *sim.Proc) {
		h.initFunc(p, 0, 64)
		// Reset the SSD through a firmware activation so resume must
		// rebuild the backend queues.
		h.eng.QuiesceBackend(p, 0)
		img := append([]byte("VDV10199"), make([]byte, 4088)...)
		if cpl := h.eng.BackendAdmin(p, 0, nvme.Command{
			Opcode: nvme.AdminFWDownload, CDW10: uint32(len(img)/4) - 1,
		}, img, nil); cpl.Status.IsError() {
			t.Fatalf("fw download: %#x", cpl.Status)
		}
		if cpl := h.eng.BackendAdmin(p, 0, nvme.Command{Opcode: nvme.AdminFWCommit, CDW10: 3 << 3}, nil, nil); cpl.Status.IsError() {
			t.Fatalf("fw commit: %#x", cpl.Status)
		}
		p.Sleep(sim.Millisecond)
		h.eng.WaitBackendReset(p, 0)

		err := h.eng.ResumeBackend(p, 0)
		if err == nil {
			t.Fatal("resume succeeded despite injected admin fault")
		}
		if h.eng.BackendReady(0) {
			t.Fatal("backend reports ready after failed resume")
		}
		if got := env.Faults().Injected(); got != 1 {
			t.Fatalf("injected %d faults, want 1", got)
		}

		// The device is enabled (CC was written before Identify failed), so
		// this retry re-initialises purely because the previous bring-up
		// did not finish — the !b.ready half of the resume condition.
		if err := h.eng.ResumeBackend(p, 0); err != nil {
			t.Fatalf("retry resume: %v", err)
		}
		if !h.eng.BackendReady(0) {
			t.Fatal("backend not ready after successful retry")
		}
		if got := h.eng.BackendFirmware(0); got != "VDV10199" {
			t.Fatalf("firmware %q after upgrade", got)
		}
		buf := h.mem.AllocPages(1)
		if cpl := h.rw(p, 0, nvme.IORead, 0, make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
			t.Fatalf("read after recovered resume: %#x", cpl.Status)
		}
	})
}

// TestQuiesceLeavesNothingInFlight: when QuiesceBackend returns, the SSD owes
// nothing and is sent nothing until the resume — the state a firmware reset
// must find — however shallow the back-end queue. At depth 2 there is one
// slot: sixteen readers queue for it, and a released slot reaches its next
// holder one event after the completion that freed it, so the drain can see
// zero in flight while a submitter already holds the grant. That submitter
// must park at the gate like every other held command.
func TestQuiesceLeavesNothingInFlight(t *testing.T) {
	for _, depth := range []uint32{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("depth %d", depth), func(t *testing.T) {
			h := newFeHarnessWith(t, 1, func(c *Config) { c.BackendQDepth, c.BackendQPairs = depth, 1 })
			ns, _ := h.eng.CreateNamespace("v", 4*testChunk, []int{0})
			h.eng.Bind(0, ns)
			h.run(func(p *sim.Proc) {
				h.initFunc(p, 0, 64)
				var errs, completions int
				stopAt := p.Now() + 15*sim.Millisecond
				for i := 0; i < 16; i++ {
					buf := h.mem.AllocPages(1)
					h.env.Go("reader", func(jp *sim.Proc) {
						for jp.Now() < stopAt {
							if cpl := h.rw(jp, 0, nvme.IORead, uint64(i), make([]byte, ssd.BlockSize), buf); cpl.Status.IsError() {
								errs++
							}
							completions++
						}
					})
				}
				p.Sleep(5 * sim.Millisecond)
				h.eng.QuiesceBackend(p, 0)
				b := h.eng.backends[0]
				quiet := func(when string) {
					t.Helper()
					if b.inflight != 0 || b.pending.Len() != 0 {
						t.Fatalf("%s: %d commands in flight, %d pending on a quiesced SSD", when, b.inflight, b.pending.Len())
					}
				}
				quiet("when QuiesceBackend returned")
				served := b.dev.Ops.Reads
				p.Sleep(2 * sim.Millisecond)
				quiet("2 ms into the quiesced window")
				if now := b.dev.Ops.Reads; now != served {
					t.Fatalf("the SSD served %d reads inside the quiesced window", now-served)
				}
				before := completions
				if err := h.eng.ResumeBackend(p, 0); err != nil {
					t.Fatal(err)
				}
				p.Sleep(10 * sim.Millisecond)
				if errs != 0 || completions <= before {
					t.Fatalf("after the resume: %d I/O errors, completions %d -> %d", errs, before, completions)
				}
			})
		})
	}
}
