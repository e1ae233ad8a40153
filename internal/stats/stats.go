// Package stats provides the measurement primitives used by every
// experiment: a log-bucketed latency histogram with percentile queries, I/O
// accounting counters, and fixed-interval time series (for IOPS-over-time
// plots such as the paper's Fig. 15).
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// subBuckets is the number of linear sub-buckets per power-of-two octave.
// 32 sub-buckets bound the relative quantization error to about 3%.
const subBuckets = 32

// maxOctaves covers values up to 2^40 ns (~18 minutes), far beyond any
// simulated latency.
const maxOctaves = 41

// Hist is a latency histogram over int64 nanosecond samples. The zero value
// is ready to use. It is not safe for concurrent use; the simulation kernel
// guarantees single-threaded access.
type Hist struct {
	counts [maxOctaves * subBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v) // exact for tiny values
	}
	oct := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= 5
	sub := int(v>>(uint(oct)-5)) - subBuckets  // top 5 bits after the MSB
	idx := (oct-4)*subBuckets + sub
	if idx >= len(Hist{}.counts) {
		idx = len(Hist{}.counts) - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	oct := idx/subBuckets + 4
	sub := idx % subBuckets
	return (int64(subBuckets) + int64(sub)) << (uint(oct) - 5)
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// N returns the number of recorded samples.
func (h *Hist) N() uint64 { return h.n }

// Min returns the smallest recorded sample (0 when empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the value at quantile q in [0,1], e.g. 0.999 for P99.9.
// The answer is exact to the bucket resolution (~3%).
func (h *Hist) Percentile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all samples of o into h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// String summarises the distribution for logs.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
		h.n, h.Mean()/1e3, float64(h.Percentile(0.50))/1e3,
		float64(h.Percentile(0.99))/1e3, float64(h.max)/1e3)
}
