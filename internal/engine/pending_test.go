package engine

import (
	"math/rand"
	"slices"
	"testing"

	"bmstore/internal/nvme"
	"bmstore/internal/nvmei"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
)

// mapCIDs is the host adaptor's CID bookkeeping as it was before the leaf
// table — a Go map, probed by the same loop — kept as the reference: the CIDs
// allocCID hands out are on the wire, in DevKey and in `engine abandon`
// records, so the table must hand out exactly these.
type mapCIDs struct {
	pending map[uint16]bool
	nextCID uint16
}

func (m *mapCIDs) allocCID() uint16 {
	for {
		m.nextCID++
		if _, busy := m.pending[m.nextCID]; !busy {
			return m.nextCID
		}
	}
}

// twinCIDs drives a bare backend's table and the map reference together.
type twinCIDs struct {
	t   *testing.T
	b   *backend
	ref *mapCIDs
}

func newTwinCIDs(t *testing.T, nextCID uint16, pending ...uint16) *twinCIDs {
	tw := &twinCIDs{t: t, b: &backend{nextCID: nextCID}, ref: &mapCIDs{pending: map[uint16]bool{}, nextCID: nextCID}}
	for _, cid := range pending {
		tw.b.pending.Put(cid, &bePending{})
		tw.ref.pending[cid] = true
	}
	return tw
}

// alloc allocates from both and marks the CID pending, as beSubmit.slot does.
func (tw *twinCIDs) alloc() uint16 {
	tw.t.Helper()
	got, want := tw.b.allocCID(), tw.ref.allocCID()
	if got != want || tw.b.nextCID != tw.ref.nextCID {
		tw.t.Fatalf("allocCID = %#04x (next %#04x), the map version gives %#04x (next %#04x)", got, tw.b.nextCID, want, tw.ref.nextCID)
	}
	tw.b.pending.Put(got, &bePending{})
	tw.ref.pending[got] = true
	return got
}

func (tw *twinCIDs) complete(cid uint16) {
	tw.b.pending.Delete(cid)
	delete(tw.ref.pending, cid)
}

func TestAllocCIDAcrossTheWrap(t *testing.T) {
	edge := []uint16{0xFFFF, 0x0000, 0x0001}
	for mask := 0; mask < 1<<len(edge); mask++ {
		var pending []uint16
		for i, cid := range edge {
			if mask&(1<<i) != 0 {
				pending = append(pending, cid)
			}
		}
		tw := newTwinCIDs(t, 0xFFFE, pending...)
		var got []uint16
		for i := 0; i < 4; i++ {
			got = append(got, tw.alloc())
		}
		// Spelled out for the two ends: nothing pending walks straight
		// through zero — CID 0 is a CID like any other — and all three
		// pending skips to 2.
		switch mask {
		case 0:
			if !slices.Equal(got, []uint16{0xFFFF, 0, 1, 2}) {
				t.Fatalf("nothing pending: allocated %#04x", got)
			}
		case 7:
			if !slices.Equal(got, []uint16{2, 3, 4, 5}) {
				t.Fatalf("0xFFFF, 0 and 1 pending: allocated %#04x", got)
			}
		}
	}
}

func TestAllocCIDMatchesTheMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 50; round++ {
		// A run of pending CIDs right in front of the cursor, which the probe
		// must step over, in a table that also holds strays anywhere.
		next := uint16(rng.Intn(1 << 16))
		var pending []uint16
		for i, n := 1, rng.Intn(600); i <= n; i++ {
			if rng.Intn(8) != 0 {
				pending = append(pending, next+uint16(i))
			}
		}
		for i := 0; i < 20; i++ {
			pending = append(pending, uint16(rng.Intn(1<<16)))
		}
		tw := newTwinCIDs(t, next, pending...)
		live := slices.Clone(pending)
		for op := 0; op < 2000; op++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				tw.complete(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				live = append(live, tw.alloc())
			}
		}
		if tw.b.pending.Len() != len(tw.ref.pending) {
			t.Fatalf("table holds %d CIDs, map %d", tw.b.pending.Len(), len(tw.ref.pending))
		}
	}
}

// scattered is a set of CIDs in an order that is neither ascending nor the
// order of their leaves, spanning both ends of the space.
var scattered = []uint16{0x8000, 0x0001, 0xFFFF, 0x0100, 0x0000, 0x00FF, 0x7FFF}

// plant makes cids pending on sq as if submitted, reporting completions to
// done, and returns them sorted.
func plant(b *backend, sq *nvmei.Queue, cids []uint16, done func(nvme.Completion)) []uint16 {
	for _, cid := range cids {
		if !sq.Slots.TryAcquire() {
			panic("no slot")
		}
		b.pending.Put(cid, b.getPending(sq, done))
		if sq != b.admin {
			b.inflight++
		}
	}
	sorted := slices.Clone(cids)
	slices.Sort(sorted)
	return sorted
}

func TestAbandonPendingCompletesInCIDOrder(t *testing.T) {
	h := newFeHarness(t, 1)
	b := h.eng.backends[0]
	var got []nvme.Completion
	want := plant(b, b.ioQs[1], scattered, func(c nvme.Completion) { got = append(got, c) })
	b.abandonPending()
	h.env.Run()
	if len(got) != len(want) {
		t.Fatalf("%d completions for %d abandoned commands", len(got), len(want))
	}
	for i, c := range got {
		if c.CID != want[i] || c.Status != nvme.StatusNSNotReady {
			t.Fatalf("completion %d is CID %#04x status %#x, want CID %#04x not-ready (ascending)", i, c.CID, c.Status, want[i])
		}
	}
	if b.pending.Len() != 0 || b.inflight != 0 || b.ioQs[1].Slots.InUse() != 0 {
		t.Fatalf("after abandon: %d pending, %d in flight, %d slots held", b.pending.Len(), b.inflight, b.ioQs[1].Slots.InUse())
	}
}

func TestCrashDropPendingInCIDOrder(t *testing.T) {
	h := newFeHarness(t, 1)
	b := h.eng.backends[0]
	var adminGot []nvme.Completion
	adminCIDs := []uint16{0x0200, 0xFFFE, 0x0002}
	adminWant := plant(b, b.admin, adminCIDs, func(c nvme.Completion) { adminGot = append(adminGot, c) })
	plant(b, b.ioQs[0], scattered, func(c nvme.Completion) { t.Errorf("an I/O command dropped by a crash completed: %+v", c) })
	if n := b.crashDropPending(); n != len(scattered) {
		t.Fatalf("crashDropPending dropped %d I/O commands, want %d", n, len(scattered))
	}
	h.env.Run()
	for i, c := range adminGot {
		if c.CID != adminWant[i] || c.Status != nvme.StatusInternal {
			t.Fatalf("admin waiter %d got CID %#04x status %#x, want CID %#04x internal-error (ascending)", i, c.CID, c.Status, adminWant[i])
		}
	}
	if len(adminGot) != len(adminWant) || b.pending.Len() != 0 || b.inflight != 0 || b.ioQs[0].Slots.InUse() != 0 || b.admin.Slots.InUse() != 0 {
		t.Fatalf("after the drop: %d of %d admin waiters released, %d pending, %d in flight", len(adminGot), len(adminWant), b.pending.Len(), b.inflight)
	}
}

func TestCheckpointListsPendingCIDsAscending(t *testing.T) {
	h := newFeHarness(t, 1)
	b := h.eng.backends[0]
	want := plant(b, b.ioQs[2], scattered, nil)
	plant(b, b.admin, []uint16{0x0050}, nil) // admin commands are not I/O context
	if got := h.eng.TakeCheckpoint().Backends[0].PendingCIDs; !slices.Equal(got, want) {
		t.Fatalf("checkpoint lists pending CIDs %#04x, want %#04x", got, want)
	}
}

// TestCompletionForUnknownCIDIgnored: a CQE names its command by CID and the
// SSD is the other side of a wire — one for a CID never issued, or already
// completed, changes nothing.
func TestCompletionForUnknownCIDIgnored(t *testing.T) {
	h := newFeHarness(t, 1)
	b := h.eng.backends[0]
	completed := 0
	plant(b, b.ioQs[0], []uint16{0x0105}, func(nvme.Completion) { completed++ })
	for _, cid := range []uint16{0x0104, 0x0005, 0x4105, 0xFFFF, 0} {
		b.complete(nvme.Completion{CID: cid})
	}
	h.env.Run()
	if completed != 0 || b.pending.Len() != 1 || b.inflight != 1 || b.ioQs[0].Slots.InUse() != 1 {
		t.Fatalf("stray completions: %d delivered, %d pending, %d in flight, %d slots held; want the one planted command untouched",
			completed, b.pending.Len(), b.inflight, b.ioQs[0].Slots.InUse())
	}
	b.complete(nvme.Completion{CID: 0x0105})
	b.complete(nvme.Completion{CID: 0x0105}) // a duplicate of it
	h.env.Run()
	if completed != 1 || b.pending.Len() != 0 || b.inflight != 0 {
		t.Fatalf("after the real completion and a duplicate: %d delivered, %d pending, %d in flight", completed, b.pending.Len(), b.inflight)
	}
}

// TestReplaceBackendStartsFromAnEmptyTable: whatever the old device still
// owed — here an admin command it never answered — is forgotten with it.
func TestReplaceBackendStartsFromAnEmptyTable(t *testing.T) {
	h := newFeHarness(t, 1)
	b := h.eng.backends[0]
	h.run(func(p *sim.Proc) {
		h.eng.QuiesceBackend(p, 0)
		b.pending.Put(0x4242, &bePending{q: b.admin})
		cfg := ssd.P4510("SN-NEW")
		cfg.CapacityBytes = 64 << 20
		if err := h.eng.ReplaceBackend(p, 0, ssd.New(h.env, cfg), pcie.NewLink(h.env, 4, 300*sim.Nanosecond)); err != nil {
			t.Fatal(err)
		}
		if n := b.pending.Len(); n != 0 || b.pending.Get(0x4242) != nil {
			t.Fatalf("%d commands pending on the new device after its bring-up, want none", n)
		}
	})
}
