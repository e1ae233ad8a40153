package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Record(777)
	if h.N() != 1 || h.Min() != 777 || h.Max() != 777 {
		t.Fatalf("bad bookkeeping: n=%d min=%d max=%d", h.N(), h.Min(), h.Max())
	}
	if h.Mean() != 777 {
		t.Fatalf("mean %f", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Percentile(q); got != 777 {
			t.Fatalf("p%v = %d, want 777", q, got)
		}
	}
}

func TestHistSmallExactValues(t *testing.T) {
	var h Hist
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	// Values below subBuckets land in exact buckets.
	if got := h.Percentile(0.5); got != 15 {
		t.Fatalf("p50 = %d, want 15", got)
	}
}

func TestHistPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var raw []int64
	for i := 0; i < 100000; i++ {
		v := int64(rng.ExpFloat64() * 80000) // exponential, mean 80us
		raw = append(raw, v)
		h.Record(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)))-1]
		got := h.Percentile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < -0.05 || rel > 0.05 {
			t.Fatalf("p%v = %d, exact %d, rel err %.3f", q, got, exact, rel)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Record(int64(i))
		b.Record(int64(1000 + i))
	}
	a.Merge(&b)
	if a.N() != 200 {
		t.Fatalf("merged n=%d", a.N())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merged min/max %d/%d", a.Min(), a.Max())
	}
}

// Property: percentile is monotone in q and bounded by [min, max].
func TestHistPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Hist
		for _, s := range samples {
			h.Record(int64(s))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Percentile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketLow(bucketOf(v)) <= v and the bucket error is < ~3.2%.
func TestHistBucketErrorProperty(t *testing.T) {
	f := func(v uint32) bool {
		x := int64(v)
		lo := bucketLow(bucketOf(x))
		if lo > x {
			return false
		}
		if x >= 64 && float64(x-lo)/float64(x) > 1.0/subBuckets {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIOStats(t *testing.T) {
	var s IOStats
	for i := 0; i < 1000; i++ {
		s.Record(4096, 80_000)
	}
	dur := int64(1e9) // 1s
	if got := s.IOPS(dur); got != 1000 {
		t.Fatalf("IOPS %f", got)
	}
	if got := s.BandwidthMBs(dur); got != 4.096 {
		t.Fatalf("BW %f", got)
	}
	if s.IOPS(0) != 0 {
		t.Fatal("zero duration should give 0")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(100)
	s.Add(0, 1)
	s.Add(99, 1)
	s.Add(100, 5)
	s.Add(350, 2)
	if len(s.Bins) != 4 {
		t.Fatalf("bins %d", len(s.Bins))
	}
	if s.Bins[0] != 2 || s.Bins[1] != 5 || s.Bins[2] != 0 || s.Bins[3] != 2 {
		t.Fatalf("bins %v", s.Bins)
	}
	// 2 ops in a 100ns bin = 2e7 ops/s.
	if got := s.Rate(0); got != 2e7 {
		t.Fatalf("rate %f", got)
	}
	if s.Rate(-1) != 0 || s.Rate(10) != 0 {
		t.Fatal("out of range rate should be 0")
	}
}

// TestSeriesBinsByComparison: Add divides only when t leaves the bin the
// last Add went to. Against the divide-every-time reference, on times that
// mostly advance within a bin, land on bin edges, skip bins and go back,
// every bin reads bit for bit the same.
func TestSeriesBinsByComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSeries(100)
	var ref []float64
	at := int64(0)
	for range 5000 {
		switch r := rng.Intn(20); {
		case r == 0:
			at = rng.Int63n(at + 1) // back
		case r == 1:
			at = (at/100 + 1) * 100 // onto the next edge
		case r == 2:
			at += 100 * rng.Int63n(4) // whole bins on
		default:
			at += rng.Int63n(30)
		}
		v := rng.Float64()
		s.Add(at, v)
		idx := int(at / 100)
		for len(ref) <= idx {
			ref = append(ref, 0)
		}
		ref[idx] += v
	}
	if len(s.Bins) != len(ref) {
		t.Fatalf("%d bins, reference %d", len(s.Bins), len(ref))
	}
	for i := range ref {
		if s.Bins[i] != ref[i] {
			t.Fatalf("bin %d = %v, reference %v", i, s.Bins[i], ref[i])
		}
	}
}

func TestHistPercentileDegenerateQ(t *testing.T) {
	// Out-of-range quantiles must clamp to min/max, never index off the
	// bucket array — including on an empty histogram, where everything is 0.
	var empty Hist
	for _, q := range []float64{-1, -0.001, 0, 0.5, 1, 1.5, 100} {
		if got := empty.Percentile(q); got != 0 {
			t.Fatalf("empty p%v = %d, want 0", q, got)
		}
	}
	var h Hist
	for v := int64(10); v <= 1000; v += 10 {
		h.Record(v)
	}
	if got := h.Percentile(-3); got != h.Min() {
		t.Fatalf("p(-3) = %d, want min %d", got, h.Min())
	}
	if got := h.Percentile(7); got != h.Max() {
		t.Fatalf("p(7) = %d, want max %d", got, h.Max())
	}
}

func TestHistMergeEmpty(t *testing.T) {
	var a, empty Hist
	a.Record(5)
	a.Record(50)
	before := a
	a.Merge(&empty) // no-op
	if a != before {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	empty.Merge(&a) // adopt a's samples wholesale
	if empty.N() != 2 || empty.Min() != 5 || empty.Max() != 50 {
		t.Fatalf("empty.Merge(a): n=%d min=%d max=%d", empty.N(), empty.Min(), empty.Max())
	}
}

// Property: merging K shards is indistinguishable from recording every
// sample into one histogram — same n, sum, min, max, every bucket count, and
// therefore every percentile. This is the contract the observability layer's
// cross-rig aggregation (obs.Set) leans on.
func TestHistMergeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nShards := 1 + rng.Intn(5)
		shards := make([]Hist, nShards)
		var unified Hist
		nSamples := rng.Intn(400)
		for i := 0; i < nSamples; i++ {
			// Spread samples over many octaves, including the tiny exact
			// range and values past 2^32.
			v := int64(rng.Uint64() >> uint(1+rng.Intn(60)))
			shards[rng.Intn(nShards)].Record(v)
			unified.Record(v)
		}
		var merged Hist
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged.n != unified.n || merged.sum != unified.sum ||
			merged.Min() != unified.Min() || merged.Max() != unified.Max() {
			t.Fatalf("trial %d: merged (n=%d sum=%d min=%d max=%d) != unified (n=%d sum=%d min=%d max=%d)",
				trial, merged.n, merged.sum, merged.Min(), merged.Max(),
				unified.n, unified.sum, unified.Min(), unified.Max())
		}
		if merged.counts != unified.counts {
			t.Fatalf("trial %d: merged bucket counts diverge from unified recording", trial)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if merged.Percentile(q) != unified.Percentile(q) {
				t.Fatalf("trial %d: P%v merged=%d unified=%d",
					trial, q, merged.Percentile(q), unified.Percentile(q))
			}
		}
	}
}

// Every bucket index round-trips: bucketLow(i) is the smallest value that
// maps to bucket i, and its predecessor maps to bucket i-1. This pins the
// bucket boundaries down exactly, so bucketOf and bucketLow cannot drift
// apart under refactoring.
func TestHistBucketRoundTrip(t *testing.T) {
	nBuckets := len(Hist{}.counts)
	for i := 0; i < nBuckets; i++ {
		lo := bucketLow(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)=%d) = %d", i, lo, got)
		}
		if i > 0 {
			if got := bucketOf(lo - 1); got != i-1 {
				t.Fatalf("bucketOf(bucketLow(%d)-1=%d) = %d, want %d", i, lo-1, got, i-1)
			}
		}
	}
	// Values beyond the last bucket boundary clamp into the final bucket.
	if got := bucketOf(bucketLow(nBuckets-1) * 4); got != nBuckets-1 {
		t.Fatalf("overflow value maps to bucket %d, want %d", got, nBuckets-1)
	}
}
