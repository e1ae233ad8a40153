package sim

import "math/bits"

// Wheel geometry: 1024 slots of 128 ns, a 131 µs horizon — past the NAND
// read and the DMA of a 4 KiB command, which is where nearly every push of a
// data-path run lands. These are constants, not knobs: slots of 64 ns to
// 1024 ns over the same or twice the horizon measured inside one another's
// noise, and the crowded-slot bound is reached by under 0.3 % of pushes on
// any measured workload (EXPERIMENTS.md, "PR 15").
const (
	wheelShift = 7
	wheelSlots = 1024
	wheelWalk  = 8 // steps an ordered insert may walk before the entry goes to the heap instead
)

// wheelNode is one arena cell: a queued entry and the arena index of the
// next one in its slot (or in the free list). Index 0 is the nil link.
type wheelNode struct {
	it   scheduled
	next int32
}

// wheel is the near tier of the event queue: a timing wheel for entries
// whose slot (at >> wheelShift) lies fewer than wheelSlots ahead of the
// clock's slot. Because the clock only moves forward and never past the
// earliest entry, a live entry's slot stays inside [slot(now),
// slot(now)+wheelSlots): each bucket holds entries of one absolute slot
// only, and walking the buckets upward from the clock's — wrapping at the
// end of the array — visits them in time order. Within a bucket entries are
// linked in (at, seq) order, so the wheel's first entry is the head of the
// first occupied bucket, found by a bitmap scan.
//
// The nodes live in one index-linked arena with a free list rather than in a
// slice per bucket: 1024 slices that each grow to their own high-water mark
// cost half a MiB of live heap on a deep run and allocate on the way there;
// the arena grows to the peak queue depth once and is then recycled.
type wheel struct {
	head, tail [wheelSlots]int32
	occupied   [wheelSlots / 64]uint64
	nodes      []wheelNode
	free       int32
	n          int
}

// wheelCovers reports whether an entry due at `at` is inside the wheel's
// horizon when the clock reads now (at >= now).
func wheelCovers(now, at Time) bool {
	return at>>wheelShift-now>>wheelShift < wheelSlots
}

// push links it into its slot's list, or reports false when that would
// take a long walk. it carries the largest seq so far, so it sorts after
// every entry of the same or an earlier time: ordering compares at only,
// and the common case — nothing later in the slot yet — is an append at the
// tail. Otherwise it goes after the last entry not later than it, found
// from the head; that walk is a step or none at a few entries per slot, and
// it is bounded so that a slot crowded with distinct times costs its
// latecomers a heap push, never a scan of the crowd.
func (w *wheel) push(it scheduled) bool {
	nodes := w.nodes
	s := uint(it.at>>wheelShift) % wheelSlots
	prev := w.tail[s]
	if prev != 0 && nodes[prev].it.at > it.at {
		prev = 0
		for cur, steps := w.head[s], 0; nodes[cur].it.at <= it.at; steps++ {
			if steps == wheelWalk {
				return false
			}
			prev, cur = cur, nodes[cur].next
		}
	}

	i := w.free
	if i != 0 {
		w.free = nodes[i].next
	} else {
		if len(nodes) == 0 {
			nodes = append(nodes, wheelNode{}) // index 0: the nil link
		}
		nodes = append(nodes, wheelNode{})
		w.nodes = nodes
		i = int32(len(nodes) - 1)
	}
	w.n++

	// Link node i after prev, or at the head when there is none. The node
	// is stored field by field: a composite literal is built in a stack
	// temporary by word stores and copied out by wider loads that the CPU
	// cannot forward from them, a stall that cost more than the rest of push.
	next := &w.head[s]
	if prev != 0 {
		next = &nodes[prev].next
	}
	n := &nodes[i]
	n.it.at, n.it.seq, n.it.fn, n.it.ev = it.at, it.seq, it.fn, it.ev
	n.next = *next
	if *next = i; n.next == 0 {
		w.tail[s] = i
	}
	w.occupied[s/64] |= 1 << (s % 64)
	return true
}

// first returns the slot of the wheel's earliest entry, scanning the
// occupancy bitmap upward from the clock's slot; the wheel must not be
// empty. The entry itself is nodes[head[slot]].
func (w *wheel) first(now Time) uint {
	s := uint(now>>wheelShift) % wheelSlots
	word := s / 64
	if b := w.occupied[word] >> (s % 64); b != 0 {
		return s + uint(bits.TrailingZeros64(b))
	}
	// The last step comes back to the first word for the bits below the
	// clock's, which are a lap ahead; those at and above it were just seen
	// to be clear.
	for k := uint(1); k <= wheelSlots/64; k++ {
		word = (word + 1) % (wheelSlots / 64)
		if b := w.occupied[word]; b != 0 {
			return word*64 + uint(bits.TrailingZeros64(b))
		}
	}
	panic("sim: timing wheel lost an entry")
}

// pop unlinks and returns the head of slot s, which must be occupied. The
// vacated node is zeroed before it joins the free list so a parked node
// keeps no callback or event alive.
func (w *wheel) pop(s uint) scheduled {
	i := w.head[s]
	n := &w.nodes[i]
	it := scheduled{at: n.it.at, seq: n.it.seq, fn: n.it.fn, ev: n.it.ev}
	if w.head[s] = n.next; n.next == 0 {
		w.tail[s] = 0
		w.occupied[s/64] &^= 1 << (s % 64)
	}
	n.it.at, n.it.seq, n.it.fn, n.it.ev = 0, 0, nil, nil
	n.next = w.free
	w.free = i
	w.n--
	return it
}
