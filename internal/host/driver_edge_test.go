package host_test

import (
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// TestCmdTimeoutBelowMediaLatency drives the pathological configuration
// where CmdTimeout (25 µs) is shorter than the NAND array read itself
// (69 µs ± 8 % jitter): every attempt times out on physics, not faults.
// The retry storm must stay bounded at exactly MaxRetries+1 attempts and
// the CID books must balance once the stragglers drain.
func TestCmdTimeoutBelowMediaLatency(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 25 * sim.Microsecond
	dcfg.MaxRetries = 4
	dcfg.RetryBackoff = 50 * sim.Microsecond
	r := newFaultedRig(t, dcfg) // no fault rules: media latency does the work
	r.env.Go("test", func(p *sim.Proc) {
		var pk host.Parking
		oc := pk.IO(p, r.drv.BlockDev(0), nvme.IORead, 0, 1, nil)
		if !oc.TimedOut || oc.Status != nvme.StatusAborted {
			t.Fatalf("outcome %+v, want indeterminate timeout", oc)
		}
		if oc.Attempts != 5 {
			t.Fatalf("attempts = %d, want exactly MaxRetries+1 = 5", oc.Attempts)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Submitted != 5 || c.Timeouts != 5 || c.Completed != 0 {
		t.Fatalf("counters %+v, want 5 submitted / 5 timeouts / 0 completed", c)
	}
	if c.Aborts != c.Timeouts {
		t.Fatalf("aborts %d != timeouts %d", c.Aborts, c.Timeouts)
	}
	// Every zombied CID's CQE eventually lands (the reads do complete,
	// just late) and must be reclaimed as a straggler, not dropped.
	if c.Stragglers != c.Timeouts || c.ZombiesLeft != 0 {
		t.Fatalf("stragglers/zombies = %d/%d, want all %d reclaimed", c.Stragglers, c.ZombiesLeft, c.Timeouts)
	}
	if c.Spurious != 0 {
		t.Fatalf("spurious CQEs: %+v", c)
	}
}

// TestMaxRetriesZeroFailFast pins fail-fast mode under the same
// media-bound timeout: MaxRetries=0 means one attempt, classified as an
// indeterminate abort, with the single zombie still reclaimed.
func TestMaxRetriesZeroFailFast(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 25 * sim.Microsecond
	dcfg.MaxRetries = 0
	r := newFaultedRig(t, dcfg)
	r.env.Go("test", func(p *sim.Proc) {
		var pk host.Parking
		oc := pk.IO(p, r.drv.BlockDev(0), nvme.IORead, 0, 1, nil)
		if !oc.TimedOut || oc.Status != nvme.StatusAborted || oc.Attempts != 1 {
			t.Fatalf("outcome %+v, want single-attempt indeterminate abort", oc)
		}
	})
	r.env.Run()
	c := r.drv.Counters()
	if c.Submitted != 1 || c.Timeouts != 1 || c.Completed != 0 || c.Retries != 0 {
		t.Fatalf("counters %+v, want 1 submitted / 1 timeout / 0 completed / 0 retries", c)
	}
	if c.Stragglers != 1 || c.ZombiesLeft != 0 {
		t.Fatalf("straggler not reclaimed: %+v", c)
	}
}
