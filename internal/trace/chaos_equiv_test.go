// Chaos-campaign equivalence checks: a campaign's trace digests — and its
// full deterministic report — must be byte-identical whether the runs
// execute serially or in parallel, and attaching metrics to every rig must
// not move a single digest. These extend the serial/parallel and
// metrics-neutrality contracts to the chaos subsystem, so a failing chaos
// seed found in a parallel CI shard replays bit-exactly on a laptop.
package trace_test

import (
	"bytes"
	"testing"

	"bmstore/internal/experiments"
	"bmstore/internal/obs"
)

const (
	chaosEquivSeed = 2100
	chaosEquivRuns = 6
)

func runChaosEquivCampaign(parallel int, mset *obs.Set) *experiments.ChaosCampaign {
	return experiments.RunChaosCampaign(experiments.ChaosOptions{
		Seed: chaosEquivSeed, Runs: chaosEquivRuns, Parallel: parallel, Metrics: mset,
	})
}

// TestChaosCampaignSerialParallelEquivalence: the same campaign, serial and
// 4-way parallel, both with metrics attached — identical campaign digest,
// identical per-run digests and event counts, byte-identical report, and
// byte-identical metrics exports.
func TestChaosCampaignSerialParallelEquivalence(t *testing.T) {
	ms := obs.NewSet(obs.Options{SeriesInterval: obs.DefaultSeriesInterval})
	mp := obs.NewSet(obs.Options{SeriesInterval: obs.DefaultSeriesInterval})
	serial := runChaosEquivCampaign(1, ms)
	par := runChaosEquivCampaign(4, mp)

	if serial.Digest != par.Digest {
		t.Fatalf("campaign digest diverges: serial %s, parallel %s", serial.Digest, par.Digest)
	}
	for i := range serial.Runs {
		if serial.Runs[i].Digest != par.Runs[i].Digest ||
			serial.Runs[i].Events != par.Runs[i].Events {
			t.Fatalf("run %d diverges: %s/%d vs %s/%d", i,
				serial.Runs[i].Digest, serial.Runs[i].Events,
				par.Runs[i].Digest, par.Runs[i].Events)
		}
	}
	var ra, rb bytes.Buffer
	serial.WriteReport(&ra)
	par.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Fatalf("campaign report not byte-identical:\n--- serial\n%s\n--- parallel\n%s",
			ra.String(), rb.String())
	}
	var ja, jb, ca, cb bytes.Buffer
	if err := ms.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := mp.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("metrics JSON export differs between serial and parallel campaigns")
	}
	if err := ms.WriteCSV(&ca); err != nil {
		t.Fatal(err)
	}
	if err := mp.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("metrics CSV export differs between serial and parallel campaigns")
	}
}

// TestMetricsDoNotPerturbChaosDigests: running the identical campaign with
// and without metrics attached must produce the same digests — metrics stay
// passive observers even under injected faults and data hazards.
func TestMetricsDoNotPerturbChaosDigests(t *testing.T) {
	bare := runChaosEquivCampaign(2, nil)
	mset := obs.NewSet(obs.Options{SeriesInterval: obs.DefaultSeriesInterval})
	metered := runChaosEquivCampaign(2, mset)
	if bare.Digest != metered.Digest {
		t.Fatalf("metrics perturbed the campaign digest: bare %s, metered %s",
			bare.Digest, metered.Digest)
	}
	for i := range bare.Runs {
		if bare.Runs[i].Digest != metered.Runs[i].Digest {
			t.Fatalf("metrics perturbed run %d: %s vs %s",
				i, bare.Runs[i].Digest, metered.Runs[i].Digest)
		}
	}
}
