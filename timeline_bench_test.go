package bmstore

import (
	"testing"

	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
)

// BenchmarkIOPathSampledTimeline prices the same fused 4 KiB I/O path as
// BenchmarkIOPathThroughput with always-on telemetry attached: a metrics
// registry recording 1-in-64 sampled request timelines plus worst-16 tail
// forensics. One benchmark op is one I/O.
//
// The steady state must stay at 0 allocs/op (pinned by make bench-gate)
// even though every request carries a timeline: carriers are pooled and
// bound once per span, unsampled requests return theirs at finish, and a
// sampled request's retention amortises below Go's floor(total/N) allocs
// reporting. This is the allocation half of the always-on telemetry
// contract — sampling must be cheap enough to leave on in production runs.
func BenchmarkIOPathSampledTimeline(b *testing.B) {
	met := obs.New(obs.Options{
		SeriesInterval: obs.DefaultSeriesInterval,
		Timeline:       timeline.Config{SampleEvery: 64, WorstK: 16},
	})
	// The warm-up batch also fills the worst-K heap, so timed-region
	// retention is the 1-in-64 sample stream alone — well under one alloc
	// per op.
	benchIOPath(b, host.DefaultDriverConfig(), 1, 8, 1, nil, WithMetrics(met))
	if met.Timeline().Dump("").Requests == 0 {
		b.Fatal("recorder observed no requests")
	}
}
