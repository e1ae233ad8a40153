package stats

// IOStats accumulates the standard fio-style aggregate for one direction
// (read or write): operation count, bytes moved, and completion latency.
type IOStats struct {
	Ops   uint64
	Bytes uint64
	Lat   Hist
}

// Record accounts one completed operation of n bytes with the given latency
// in nanoseconds.
func (s *IOStats) Record(n int, latNS int64) {
	s.Ops++
	s.Bytes += uint64(n)
	s.Lat.Record(latNS)
}

// IOPS returns operations per second over a window of durNS nanoseconds.
func (s *IOStats) IOPS(durNS int64) float64 {
	if durNS <= 0 {
		return 0
	}
	return float64(s.Ops) / (float64(durNS) / 1e9)
}

// BandwidthMBs returns throughput in MB/s (10^6 bytes) over durNS.
func (s *IOStats) BandwidthMBs(durNS int64) float64 {
	if durNS <= 0 {
		return 0
	}
	return float64(s.Bytes) / 1e6 / (float64(durNS) / 1e9)
}

// Merge adds o into s.
func (s *IOStats) Merge(o *IOStats) {
	s.Ops += o.Ops
	s.Bytes += o.Bytes
	s.Lat.Merge(&o.Lat)
}

// Series is a fixed-interval time series: sample i covers virtual time
// [i*Interval, (i+1)*Interval). It backs IOPS-over-time plots.
type Series struct {
	Interval int64 // ns per bin
	Bins     []float64

	// cur is the bin the last Add went to, covering [lo, hi): an Add inside
	// it compares instead of dividing.
	cur    int
	lo, hi int64
}

// NewSeries returns a series with the given bin width in nanoseconds.
func NewSeries(intervalNS int64) *Series {
	if intervalNS <= 0 {
		panic("stats: series interval must be positive")
	}
	return &Series{Interval: intervalNS}
}

// Add accumulates v into the bin containing virtual time t.
func (s *Series) Add(t int64, v float64) {
	if t < s.lo || t >= s.hi {
		s.enter(t)
	}
	s.Bins[s.cur] += v
}

// enter makes the bin containing t the current one, growing Bins to it.
func (s *Series) enter(t int64) {
	idx := int(t / s.Interval)
	for len(s.Bins) <= idx {
		s.Bins = append(s.Bins, 0)
	}
	s.cur, s.lo = idx, int64(idx)*s.Interval
	s.hi = s.lo + s.Interval
}

// Rate returns bin i normalised to a per-second rate.
func (s *Series) Rate(i int) float64 {
	if i < 0 || i >= len(s.Bins) {
		return 0
	}
	return s.Bins[i] / (float64(s.Interval) / 1e9)
}
