package host_test

import (
	"slices"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// The CID in a completion entry is the device's word, and the driver finds
// the waiter and the zombie flag by indexing with it: these tests feed it
// identifiers no honest device sends.

// TestFabricatedCQEIsSpurious: a CQE whose CID lies beyond the queue's slots,
// and one whose CID is in range but free, each count as spurious and touch
// nothing else.
func TestFabricatedCQEIsSpurious(t *testing.T) {
	r := newNativeRig(t, host.CentOS("3.10.0"), nil, false)
	r.env.Go("test", func(p *sim.Proc) {
		if st := r.drv.IO(p, nvme.IORead, 0, 1, nil, 0).Status; st.IsError() {
			t.Errorf("read: status %#x", st)
		}
	})
	r.env.Run()
	before := r.drv.Counters()
	free0, _, _, inUse0 := r.drv.QueueState(0)

	for i, cid := range []uint16{0xFFFF, uint16(len(free0)), free0[0]} {
		r.drv.InjectCQE(0, nvme.Completion{CID: cid, SQID: 1})
		want := before
		want.Spurious = uint64(i + 1)
		if got := r.drv.Counters(); got != want {
			t.Fatalf("after a fabricated CQE for CID %#x: counters %+v, want %+v", cid, got, want)
		}
		free, zombies, n, inUse := r.drv.QueueState(0)
		if !slices.Equal(free, free0) || len(zombies) != 0 || n != 0 || inUse != inUse0 {
			t.Fatalf("a fabricated CQE for CID %#x moved slot state: free %d→%d, zombies %v (count %d), in use %d→%d",
				cid, len(free0), len(free), zombies, n, inUse0, inUse)
		}
	}
}

// TestZombieFlagsAndCount follows the zombie bookkeeping through timeouts, a
// straggler, a duplicate of it, and ReclaimZombies: ZombiesLeft is the number
// of flags at every step, a straggler frees its slot exactly once, and
// reclaim hands the slots back in ascending CID order.
func TestZombieFlagsAndCount(t *testing.T) {
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues, dcfg.QueueDepth = 1, 8
	dcfg.CmdTimeout = sim.Millisecond
	// The drive is pulled for good after attach: nothing it was sent ever
	// completes, so every CQE from here on is one the test injects.
	r := newFaultedRig(t, dcfg, fault.Rule{Point: fault.SSDDrop, Target: "SN001", At: int64(500 * sim.Microsecond)})
	var pk host.Parking
	for i := 0; i < 3; i++ {
		r.env.Go("io", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			if oc := pk.IO(p, r.drv.BlockDev(0), nvme.IOWrite, 0, 1, nil); !oc.TimedOut {
				t.Errorf("write to a pulled drive: %+v, want a timeout", oc)
			}
		})
	}
	r.env.Run()

	state := func(what string, wantZombies []uint16, wantFreeTail []uint16, wantInUse int) {
		t.Helper()
		free, zombies, n, inUse := r.drv.QueueState(0)
		if !slices.Equal(zombies, wantZombies) || n != len(wantZombies) || r.drv.Counters().ZombiesLeft != n {
			t.Fatalf("%s: zombie flags %v, count %d, ZombiesLeft %d; want %v", what, zombies, n, r.drv.Counters().ZombiesLeft, wantZombies)
		}
		if !slices.Equal(free[len(free)-len(wantFreeTail):], wantFreeTail) || len(free)+inUse != 7 || inUse != wantInUse {
			t.Fatalf("%s: free list %v with %d slots in use; want it to end in %v with %d in use", what, free, inUse, wantFreeTail, wantInUse)
		}
	}
	// Slots are popped from the top of the free list: CIDs 6, 5, 4.
	state("after three timeouts", []uint16{4, 5, 6}, []uint16{3}, 3)
	if c := r.drv.Counters(); c.Timeouts != 3 || c.Completed != 0 || c.Stragglers != 0 || c.Spurious != 0 {
		t.Fatalf("counters %+v, want three timeouts and nothing else", c)
	}

	r.drv.InjectCQE(0, nvme.Completion{CID: 5, SQID: 1})
	state("after CID 5's straggler", []uint16{4, 6}, []uint16{3, 5}, 2)
	r.drv.InjectCQE(0, nvme.Completion{CID: 5, SQID: 1})
	state("after a duplicate of it", []uint16{4, 6}, []uint16{3, 5}, 2)
	if c := r.drv.Counters(); c.Stragglers != 1 || c.Spurious != 1 {
		t.Fatalf("counters %+v, want one straggler and its duplicate spurious", c)
	}

	// Two I/O zombies plus the three aborts that timed out on the admin
	// queue; only the I/O slots count as Reclaimed.
	if n := r.drv.ReclaimZombies(); n != 5 {
		t.Fatalf("ReclaimZombies freed %d slots, want 5", n)
	}
	state("after ReclaimZombies", nil, []uint16{3, 5, 4, 6}, 0)
	if c := r.drv.Counters(); c.Reclaimed != 2 || c.Timeouts != c.Stragglers+c.Reclaimed {
		t.Fatalf("counters %+v, want every timeout ended as a straggler or a reclaim", c)
	}
	if n := r.drv.ReclaimZombies(); n != 0 {
		t.Fatalf("a second ReclaimZombies freed %d slots", n)
	}
}
