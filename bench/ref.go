package main

import (
	"math"
	"time"
)

// The reference kernel is a fixed piece of work that shares nothing with
// the simulator, in two parts: a dependent walk over a 4 MiB permutation
// (cache and memory latency) and a 4096-entry binary heap churned with
// pseudo-random keys (branches, L1/L2). A run times it before and after
// every round and every set-up, so each has a reading of how slow this
// machine was just then, and reports its host times in reference seconds:
// the time measured / the two readings' mean.
//
// The sandbox this runs in shares its host: the same round of the same
// seed took 0.45 s and 0.56 s in runs two minutes apart, and the kernel
// (a first cut of it) took 12.1 ms and 15.1 ms beside them. Over eight such
// runs the quartiles of a round's raw wall time lay 10-17 % of the median
// apart; in reference seconds, 1.6-3.3 %. A change to the simulator shows
// in full either way, because the kernel runs none of its code.
//
// A reading is the geometric mean of the two parts' slowdowns. Over 640
// rounds of three workloads, dividing by that tracked the rounds' own
// drift best (run medians within 0.9-3.6 % of each other); either part
// alone, or the sum of their times, which weighs the walk double, did
// worse (1.5-4.9 %).

// What the two parts took on the box the benchmark was written on when its
// neighbours were quiet; they only fix the unit.
const (
	refNominalWalkS = 0.0091
	refNominalHeapS = 0.0046
)

const (
	refWalkLen  = 1 << 20 // uint32s: 4 MiB
	refWalkHops = 1 << 18
	refHeapLen  = 4096
	refHeapOps  = 1 << 16
)

type refKernel struct {
	walk []uint32
	heap []uint64
	pos  uint32
	warm uint32
	rng  uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{walk: make([]uint32, refWalkLen), heap: make([]uint64, refHeapLen), rng: 0x9e3779b97f4a7c15}
	// Sattolo's algorithm: one cycle through every slot.
	for i := range k.walk {
		k.walk[i] = uint32(i)
	}
	for i := len(k.walk) - 1; i > 0; i-- {
		j := int(k.next() % uint64(i))
		k.walk[i], k.walk[j] = k.walk[j], k.walk[i]
	}
	for i := range k.heap {
		k.heap[i] = uint64(i)
	}
	return k
}

// bytes is the heap the kernel holds, which is not the simulator's.
func (k *refKernel) bytes() uint64 { return uint64(4*len(k.walk) + 8*len(k.heap)) }

func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// run does the fixed work once and returns how slow the machine read: 1 is
// nominal, 1.1 is 10 % slower. An untimed pass over the permutation comes
// first, so that the reading does not depend on what the workload left in
// the caches.
func (k *refKernel) run() float64 {
	var warm uint32
	for _, v := range k.walk {
		warm += v
	}
	k.warm = warm // keeps the pass live
	t0 := time.Now()
	p := k.pos
	for i := 0; i < refWalkHops; i++ {
		p = k.walk[p]
	}
	k.pos = p
	walk := time.Since(t0).Seconds()
	t0 = time.Now()
	h := k.heap
	for i := 0; i < refHeapOps; i++ {
		// Replace the minimum with a later key and sift it down.
		v := h[0] + k.next()%refHeapLen + 1
		j := 0
		for {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= v {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = v
	}
	heap := time.Since(t0).Seconds()
	return math.Sqrt(walk / refNominalWalkS * heap / refNominalHeapS)
}

// refScale turns a host time taken between two readings of the kernel into
// reference seconds.
func refScale(before, after float64) float64 { return 2 / (before + after) }
