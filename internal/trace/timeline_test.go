// Timeline-neutrality checks: sampled request timelines and worst-K tail
// forensics are part of the always-on telemetry boundary, so they must be
// invisible to the determinism digest on every pinned rig, and the Perfetto
// export must be byte-identical no matter how many workers ran the sweep or
// how many OS threads the Go runtime used.
package trace_test

import (
	"bytes"
	"runtime"
	"testing"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
)

// timelineOptions is the recording configuration every neutrality test
// attaches: aggressive sampling so short rigs still retain records.
func timelineOptions() obs.Options {
	return obs.Options{
		SeriesInterval: obs.DefaultSeriesInterval,
		Timeline:       timeline.Config{SampleEvery: 4, WorstK: 8},
	}
}

// TestTimelineDoesNotPerturbDigests: attaching a timeline-recording
// registry to each determinism rig must not move its trace digest or event
// count — recording is pure observation, never a scheduled event. This is
// the digest-neutrality half of the always-on telemetry contract.
func TestTimelineDoesNotPerturbDigests(t *testing.T) {
	for name, s := range allScenarios() {
		s := s
		t.Run(name, func(t *testing.T) {
			off, nOff := s.TraceDigest()
			reg := obs.New(timelineOptions())
			s.Config = s.Config.With(bmstore.WithMetrics(reg))
			on, nOn := s.TraceDigest()
			if on != off || nOn != nOff {
				t.Fatalf("timeline recording perturbed the trace:\n  off: %s (%d events)\n  on : %s (%d events)",
					off, nOff, on, nOn)
			}
			d := reg.Timeline().Dump("")
			if d.Requests == 0 {
				t.Fatal("recorder observed no requests — neutrality test observed nothing")
			}
			if len(d.Samples) == 0 && len(d.Worst) == 0 {
				t.Fatalf("recorder retained nothing from %d requests", d.Requests)
			}
		})
	}
}

// sweepTimeline runs the tiny evaluation subset with timeline recording on
// and returns the Perfetto trace bytes.
func sweepTimeline(parallel int) []byte {
	mset := obs.NewSet(timelineOptions())
	h := experiments.NewHarness(tinyScale(), parallel, nil).WithMetrics(mset)
	pick := map[string]bool{"fig1": true, "fig12": true, "fig13a": true, "abl-zerocopy": true, "abl-qos": true}
	for _, e := range experiments.All() {
		if pick[e.ID] {
			e.Run(h)
		}
	}
	var buf bytes.Buffer
	if err := mset.WriteTimeline(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestTimelineExportSerialParallelEquivalence: the Perfetto export is
// assembled from per-rig recorders in sorted rig-name order with
// deterministic lane assignment, so its bytes must be identical for any
// -parallel value.
func TestTimelineExportSerialParallelEquivalence(t *testing.T) {
	serial := sweepTimeline(1)
	par := sweepTimeline(4)
	if len(serial) == 0 || !bytes.Contains(serial, []byte(`"bmstore_rig"`)) {
		t.Fatalf("serial trace looks empty:\n%.400s", serial)
	}
	if !bytes.Equal(serial, par) {
		t.Error("Perfetto trace differs between -parallel 1 and -parallel 4")
	}
	// The export must also round-trip through the offline reader.
	rigs, err := timeline.ReadTrace(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	var retained int
	for _, rig := range rigs {
		retained += len(rig.Samples) + len(rig.Worst)
	}
	if retained == 0 {
		t.Fatal("sweep trace retained no timelines")
	}
	t.Logf("trace: %d bytes, %d rigs, %d retained records", len(serial), len(rigs), retained)
}

// TestTimelineExportAcrossGOMAXPROCS: the trace bytes must also be
// invariant to the Go runtime's thread count — goroutine scheduling under
// the worker pool may reorder rig completion but never what each rig
// recorded or how the export orders it.
func TestTimelineExportAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("three full sweeps; skipped under -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		trace := sweepTimeline(4)
		if base == nil {
			base = trace
			continue
		}
		if !bytes.Equal(trace, base) {
			t.Errorf("GOMAXPROCS=%d: Perfetto trace differs from GOMAXPROCS=1", procs)
		}
	}
}
