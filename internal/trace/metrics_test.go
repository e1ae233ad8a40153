// Metrics-neutrality checks: the observability layer must be invisible to
// the determinism digest. Metrics observe virtual time passively — they
// never schedule events or spawn processes — so attaching a registry to any
// rig must leave the trace digest bit-identical, and exporting a metrics
// set must be byte-identical no matter how many workers ran the sweep.
package trace_test

import (
	"bytes"
	"testing"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/obs"
)

// allScenarios returns the five determinism rigs the replay suite pins.
func allScenarios() map[string]bmstore.Scenario {
	return map[string]bmstore.Scenario{
		"bmstore":     fioBody(42, 2),
		"direct":      directBody(42),
		"hot-upgrade": hotUpgradeBody(),
		"hot-plug":    hotPlugBody(),
		"qos":         qosBody(),
	}
}

// TestMetricsDoNotPerturbDigests: enabling metrics on each determinism rig
// must not move its trace digest or its event count. This is the contract
// that lets operators leave -metrics on without forfeiting replay checks.
func TestMetricsDoNotPerturbDigests(t *testing.T) {
	for name, s := range allScenarios() {
		s := s
		t.Run(name, func(t *testing.T) {
			off, nOff := s.TraceDigest()
			reg := obs.NewRegistry()
			s.Config = s.Config.With(bmstore.WithMetrics(reg))
			on, nOn := s.TraceDigest()
			if on != off || nOn != nOff {
				t.Fatalf("metrics perturbed the trace:\n  off: %s (%d events)\n  on : %s (%d events)",
					off, nOff, on, nOn)
			}
			if agg := reg.SpanAggregate(); agg.Finished[obs.OpRead]+agg.Finished[obs.OpWrite] == 0 {
				t.Fatal("metrics registry recorded no finished spans — neutrality test observed nothing")
			}
		})
	}
}

// sweepMetrics runs the same evaluation subset as sweep() with a metrics
// set attached and returns the exported JSON and CSV snapshots.
func sweepMetrics(parallel int) (jsonOut, csvOut []byte) {
	mset := obs.NewSet(obs.Options{SeriesInterval: obs.DefaultSeriesInterval})
	h := experiments.NewHarness(tinyScale(), parallel, nil).WithMetrics(mset)
	pick := map[string]bool{"fig1": true, "fig12": true, "fig13a": true, "abl-zerocopy": true, "abl-qos": true}
	for _, e := range experiments.All() {
		if pick[e.ID] {
			e.Run(h)
		}
	}
	var jb, cb bytes.Buffer
	if err := mset.WriteJSON(&jb); err != nil {
		panic(err)
	}
	if err := mset.WriteCSV(&cb); err != nil {
		panic(err)
	}
	return jb.Bytes(), cb.Bytes()
}

// TestMetricsExportSerialParallelEquivalence: the exported snapshot is
// assembled in sorted rig-name order from per-rig registries, so the bytes
// must be identical for any -parallel value.
func TestMetricsExportSerialParallelEquivalence(t *testing.T) {
	serialJSON, serialCSV := sweepMetrics(1)
	parJSON, parCSV := sweepMetrics(4)

	if len(serialJSON) == 0 || !bytes.Contains(serialJSON, []byte(`"rigs"`)) {
		t.Fatalf("serial JSON snapshot looks empty:\n%s", serialJSON)
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Errorf("JSON snapshot differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialJSON, parJSON)
	}
	if !bytes.Equal(serialCSV, parCSV) {
		t.Errorf("CSV snapshot differs between -parallel 1 and -parallel 4")
	}
	t.Logf("snapshot: %d JSON bytes, %d CSV bytes", len(serialJSON), len(serialCSV))
}
