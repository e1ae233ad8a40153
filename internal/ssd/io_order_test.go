package ssd

import (
	"testing"

	"bmstore/internal/nvme"
	"bmstore/internal/nvmet"
	"bmstore/internal/sim"
)

// TestCommandStartsOneHopAfterDispatch pins a hop position that is part of
// the timing model (DESIGN.md §11, "what stays and why"): StartIO only takes
// a record and schedules the command's first step, so whatever was already
// queued for the dispatch instant — in the card, the host adaptor posting a
// doorbell on this SSD's link — books the link before the command books its
// own DMAs. The test plays the controller's dispatch, queues a page read on
// the same port for the same instant, and reads the booking order off the
// completion times. (Running start inside StartIO books the write's payload
// fetch first: the page read then completes late by the payload's wire time.)
func TestCommandStartsOneHopAfterDispatch(t *testing.T) {
	// run hands the SSD one 4 KiB write as the controller's dispatch step
	// does and, with contend set, queues a page read behind the dispatch. It
	// returns how long that read took and when the write's interrupt arrived.
	run := func(contend bool) (pageTime, writeDone sim.Time) {
		h := newHarness(t, P4510("SN001"))
		var nsid uint32
		h.run(func(p *sim.Proc) {
			nsid = h.createNS(p, 1<<20)
			h.createIOQueues(p, 8)
		})
		cmd := nvme.Command{Opcode: nvme.IOWrite, NSID: nsid, CID: 1, PRP1: h.mem.AllocPages(1)}
		cmd.SetNLB(1)
		page := h.mem.AllocPages(1)
		h.env.Schedule(sim.Microsecond, func() { h.dev.StartIO(&nvmet.SQ{ID: 1, CQID: 1}, cmd, 1) })
		if contend {
			h.env.Schedule(sim.Microsecond, func() {
				pageTime = h.conn.Port.DMARead(page, nvme.PageSize, nil) - h.env.Now()
			})
		}
		writes := h.dev.Ops.Writes
		writeDone = h.env.Run() // the last event is the completion's interrupt
		if h.dev.Ops.Writes != writes+1 {
			t.Fatal("the write did not execute")
		}
		return pageTime, writeDone
	}
	idle := newHarness(t, P4510("SN001"))
	idle.env.Run()
	want := idle.conn.Port.DMARead(idle.mem.AllocPages(1), nvme.PageSize, nil) - idle.env.Now()

	_, alone := run(false)
	pageTime, behind := run(true)
	if pageTime != want {
		t.Errorf("a page read queued for the dispatch instant took %d ns, %d ns on an idle link: the command's payload fetch was booked ahead of it, inside StartIO", pageTime, want)
	}
	if behind <= alone {
		t.Errorf("write completed at %d with the link busy, %d without: its payload fetch did not queue behind the page read", behind, alone)
	}
}
