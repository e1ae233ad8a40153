package host_test

import (
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// newFaultedRig is newNativeRig with a fault injector attached and the
// driver's timeout/retry recovery armed.
func newFaultedRig(t *testing.T, dcfg host.DriverConfig, rules ...fault.Rule) *nativeRig {
	t.Helper()
	env := sim.NewEnv(3)
	env.SetFaults(fault.New(rules...))
	h := host.New(env, 768<<30, host.CentOS("3.10.0"))
	cfg := ssd.P4510("SN001")
	dev := ssd.New(env, cfg)
	link := pcie.NewLink(env, 4, 300*sim.Nanosecond)
	port := h.Connect(link, dev, nil)
	dev.Attach(port)

	r := &nativeRig{env: env, h: h, dev: dev}
	var err error
	dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
	done := env.Go("attach", func(p *sim.Proc) {
		r.drv, err = host.AttachDriver(p, h, port, 0, dcfg)
	})
	env.Run()
	if !done.Done().Processed() || err != nil {
		t.Fatalf("driver attach: %v", err)
	}
	return r
}

func TestIOCountersCleanRun(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	r.env.Go("test", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		var pk host.Parking
		for i := uint64(0); i < 8; i++ {
			if oc := pk.IO(p, bd, nvme.IOWrite, i*8, 8, nil); oc.Status.IsError() || oc.Attempts != 1 || oc.TimedOut {
				t.Fatalf("write outcome %+v", oc)
			}
		}
		if oc := pk.IO(p, bd, nvme.IORead, 0, 8, nil); oc.Status.IsError() || oc.Attempts != 1 {
			t.Fatalf("read outcome %+v", oc)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Submitted != 9 || c.Completed != 9 {
		t.Fatalf("submitted/completed = %d/%d, want 9/9", c.Submitted, c.Completed)
	}
	if c.Timeouts != 0 || c.Aborts != 0 || c.Retries != 0 || c.Stragglers != 0 || c.Spurious != 0 || c.ZombiesLeft != 0 {
		t.Fatalf("clean run has fault counters: %+v", c)
	}
}

func TestIOCountersAcrossRetries(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 3 * sim.Millisecond
	dcfg.MaxRetries = 10
	dcfg.RetryBackoff = 200 * sim.Microsecond
	// Two retryable media errors back to back on the first reads.
	r := newFaultedRig(t, dcfg,
		fault.Rule{Point: fault.SSDMediaRead, Status: uint16(nvme.StatusInternal), Count: 2})
	r.env.Go("test", func(p *sim.Proc) {
		bd := r.drv.BlockDev(0)
		var pk host.Parking
		oc := pk.IO(p, bd, nvme.IORead, 0, 1, nil)
		if oc.Status.IsError() || oc.TimedOut {
			t.Fatalf("recovered read outcome %+v", oc)
		}
		if oc.Attempts != 3 {
			t.Fatalf("attempts = %d, want 3 (two failures then success)", oc.Attempts)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Submitted != 3 || c.Completed != 3 || c.Retries != 2 {
		t.Fatalf("counters %+v, want 3 submitted / 3 completed / 2 retries", c)
	}
	if c.Submitted != c.Completed+c.Timeouts || c.Spurious != 0 || c.ZombiesLeft != 0 {
		t.Fatalf("CID accounting does not balance: %+v", c)
	}
}

func TestIOCountersTimeoutAndStraggler(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 1 * sim.Millisecond
	dcfg.MaxRetries = 10
	dcfg.RetryBackoff = 500 * sim.Microsecond
	// The SSD stops fetching SQEs for 4 ms (armed after driver attach, which
	// finishes ~115 µs in): attempts issued into the stall time out, their
	// CIDs go zombie, and the stragglers arrive once the window ends.
	r := newFaultedRig(t, dcfg,
		fault.Rule{Point: fault.SSDStall, Target: "SN001", At: int64(200 * sim.Microsecond), Duration: int64(4 * sim.Millisecond)})
	r.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // land the submission inside the stall window
		bd := r.drv.BlockDev(0)
		var pk host.Parking
		oc := pk.IO(p, bd, nvme.IOWrite, 0, 1, nil)
		if oc.Status.IsError() || oc.TimedOut {
			t.Fatalf("recovered write outcome %+v", oc)
		}
		if oc.Attempts < 2 {
			t.Fatalf("attempts = %d, want a timeout before success", oc.Attempts)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Timeouts == 0 {
		t.Fatalf("no timeouts recorded: %+v", c)
	}
	if c.Aborts != c.Timeouts {
		t.Fatalf("aborts %d != timeouts %d", c.Aborts, c.Timeouts)
	}
	if c.Submitted != c.Completed+c.Timeouts {
		t.Fatalf("submitted %d != completed %d + timeouts %d", c.Submitted, c.Completed, c.Timeouts)
	}
	if c.Stragglers != c.Timeouts || c.ZombiesLeft != 0 {
		t.Fatalf("stragglers/zombies = %d/%d, want all %d zombies reclaimed", c.Stragglers, c.ZombiesLeft, c.Timeouts)
	}
	if c.Spurious != 0 {
		t.Fatalf("spurious CQEs: %+v", c)
	}
}

func TestIOOutcomeIndeterminateWithoutRecovery(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 1 * sim.Millisecond
	// MaxRetries 0: the first timeout ends the episode indeterminate.
	r := newFaultedRig(t, dcfg,
		fault.Rule{Point: fault.SSDStall, Target: "SN001", At: int64(200 * sim.Microsecond), Duration: int64(10 * sim.Millisecond)})
	r.env.Go("test", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // land the submission inside the stall window
		bd := r.drv.BlockDev(0)
		var pk host.Parking
		oc := pk.IO(p, bd, nvme.IOWrite, 0, 1, nil)
		if !oc.TimedOut || oc.Status != nvme.StatusAborted || oc.Attempts != 1 {
			t.Fatalf("outcome %+v, want indeterminate single-attempt abort", oc)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Timeouts != 1 || c.Submitted != 1 || c.Completed != 0 {
		t.Fatalf("counters %+v", c)
	}
	// The straggler lands after the stall window, once env.Run drains.
	if c.Stragglers != 1 || c.ZombiesLeft != 0 {
		t.Fatalf("straggler not reclaimed: %+v", c)
	}
}

// TestDroppedDriveUnderADeepQueueFailsTheIO: a drive pulled for good answers
// nothing, so every attempt sent to it leaves a zombied CID, and more attempts
// are owed (workers × the retry budget) than the queue has slots. The wait for
// a slot is bounded by CmdTimeout like the wait for a CQE: every episode ends
// in an error instead of the driver wedging on its own zombies, an attempt
// that got no slot is counted apart from the ones that were sent, and an
// episode that never reached the device is a clean error, not an in-doubt one.
func TestDroppedDriveUnderADeepQueueFailsTheIO(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues, dcfg.QueueDepth = 1, 8 // 7 slots
	dcfg.CmdTimeout, dcfg.MaxRetries, dcfg.RetryBackoff = sim.Millisecond, 3, 100*sim.Microsecond
	r := newFaultedRig(t, dcfg, fault.Rule{Point: fault.SSDDrop, Target: "SN001", At: int64(500 * sim.Microsecond)})
	var early, late []host.IOOutcome
	var pk host.Parking
	write := func(at sim.Time, into *[]host.IOOutcome) {
		r.env.Go("io", func(p *sim.Proc) {
			p.Sleep(at)
			*into = append(*into, pk.IO(p, r.drv.BlockDev(0), nvme.IOWrite, 0, 1, nil))
		})
	}
	for i := 0; i < 4; i++ {
		write(sim.Millisecond, &early) // 4 workers × 4 attempts against 7 slots
	}
	write(50*sim.Millisecond, &late) // arrives when every slot is a zombie
	r.env.Run()

	if len(early) != 4 || len(late) != 1 {
		t.Fatalf("%d of 4 early and %d of 1 late episodes ended; the rest are wedged", len(early), len(late))
	}
	for _, oc := range early {
		if oc.Status != nvme.StatusAborted || !oc.TimedOut || oc.Attempts != 4 {
			t.Errorf("an episode whose first attempt was sent ended %+v, want aborted and in doubt after 4 attempts", oc)
		}
	}
	if oc := late[0]; oc.Status != nvme.StatusAborted || oc.TimedOut || oc.Attempts != 4 {
		t.Errorf("an episode that never got a slot ended %+v, want a clean abort after 4 attempts", oc)
	}
	c := r.drv.Counters()
	want := host.IOCounters{Submitted: 7, Timeouts: 7, Aborts: 7, Retries: 15, SlotTimeouts: 13, ZombiesLeft: 7}
	if c != want {
		t.Errorf("counters %+v, want %+v", c, want)
	}
	if c.Submitted != c.Completed+c.Timeouts || c.Aborts != c.Timeouts {
		t.Errorf("counters %+v break the CID accounting (submitted = completed + timeouts, one abort per timeout)", c)
	}
}

// TestAbortGivesUpWithoutAnAdminSlot: the Abort after a timeout is best
// effort, and on a dead device the Aborts themselves time out and zombie the
// admin queue's 31 slots. The 32nd must not wait for one for good.
func TestAbortGivesUpWithoutAnAdminSlot(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues, dcfg.QueueDepth, dcfg.CmdTimeout = 1, 64, sim.Millisecond
	r := newFaultedRig(t, dcfg, fault.Rule{Point: fault.SSDDrop, Target: "SN001", At: int64(500 * sim.Microsecond)})
	ended := 0
	var pk host.Parking
	for i := 0; i < 40; i++ {
		r.env.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			if oc := pk.IO(p, r.drv.BlockDev(0), nvme.IOWrite, 0, 1, nil); !oc.TimedOut {
				t.Errorf("write to a pulled drive: %+v, want a timeout", oc)
			}
			ended++
		})
	}
	r.env.Run()
	c := r.drv.Counters()
	if ended != 40 || c.Timeouts != 40 || c.Aborts != 40 || c.ZombiesLeft != 40 {
		t.Fatalf("%d of 40 writes ended, counters %+v; want 40 timeouts, each with its abort raised", ended, c)
	}
	if n := r.drv.ReclaimZombies(); n != 40+31 {
		t.Fatalf("ReclaimZombies freed %d slots, want the 40 I/O CIDs and the 31 admin slots the sent Aborts held", n)
	}
}

// TestCQEQueuedAsItsAttemptTimesOutIsAStraggler: under a zero completion cost
// the IRQ handler queues a CQE's delivery instead of running it. When the
// attempt's CmdTimeout timer runs in that same instant, before the delivery,
// the attempt has timed out and its slot is zombied, so the delivery is the
// slot's straggler: counted as one, and the slot freed, not a completion on
// top of a timeout. The drive is pulled and answers nothing; the test plays
// the CQE, from an entry queued before the attempt was submitted, so that it
// is reaped at the instant the timer is due and ahead of it.
func TestCQEQueuedAsItsAttemptTimesOutIsAStraggler(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues, dcfg.QueueDepth, dcfg.CmdTimeout = 1, 8, sim.Millisecond
	r := newFaultedRig(t, dcfg, fault.Rule{Point: fault.SSDDrop, Target: "SN001", At: int64(500 * sim.Microsecond)})
	r.h.Kernel.CompleteLatency = 0
	// The write starts at 1 ms, rings its doorbell and arms its timer
	// SubmitLatency later, on the top slot of the free stack.
	start := sim.Millisecond
	due := start + r.h.Kernel.SubmitLatency + dcfg.CmdTimeout
	free, _, _, _ := r.drv.QueueState(0)
	cid := free[len(free)-1]
	r.env.Schedule(due-r.env.Now(), func() {
		if _, z, _, inUse := r.drv.QueueState(0); len(z) != 0 || inUse != 1 {
			t.Errorf("at t=%d the write is not waiting for its CQE (zombies %v, %d slots in use)", r.env.Now(), z, inUse)
		}
		r.drv.InjectCQE(0, nvme.Completion{CID: cid, SQID: 1})
	})
	var oc host.IOOutcome
	r.env.Go("io", func(p *sim.Proc) {
		p.Sleep(start - p.Now())
		oc = new(host.Parking).IO(p, r.drv.BlockDev(0), nvme.IOWrite, 0, 1, nil)
	})
	r.env.Run()
	if want := (host.IOOutcome{Status: nvme.StatusAborted, Attempts: 1, TimedOut: true}); oc != want {
		t.Errorf("outcome %+v, want %+v", oc, want)
	}
	want := host.IOCounters{Submitted: 1, Timeouts: 1, Aborts: 1, Stragglers: 1}
	if c := r.drv.Counters(); c != want {
		t.Errorf("counters %+v, want %+v: submitted = completed + timeouts, and the late CQE frees the zombied slot", c, want)
	}
	if free, _, _, inUse := r.drv.QueueState(0); inUse != 0 || len(free) != int(dcfg.QueueDepth)-1 {
		t.Errorf("%d slots in use, %d free after the straggler; want every slot free", inUse, len(free))
	}
}
