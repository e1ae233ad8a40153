package bmstore

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/trace"
)

// TestChaosCampaignTwentySeedsGreen is the headline acceptance check: a
// twenty-schedule campaign — benign and hazard regimes mixed — comes back
// with every invariant intact: benign runs verify perfectly clean, hazard
// runs show exactly the violation classes their injections imply, CID books
// balance everywhere, and nothing wedges.
func TestChaosCampaignTwentySeedsGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	c := RunChaosCampaign(ChaosOptions{Seed: 1, Runs: 20, Parallel: runtime.GOMAXPROCS(0)})
	if !c.OK() {
		var buf bytes.Buffer
		c.WriteReport(&buf)
		t.Fatalf("campaign not green:\n%s", buf.String())
	}
	if c.Digest == "" {
		t.Fatal("campaign has no digest")
	}
	// The mix must exercise both regimes, and at least one hazard must have
	// actually fired and been caught — a campaign that never detects
	// anything proves nothing.
	hazards, benign, caught := 0, 0, 0
	for i := range c.Runs {
		r := &c.Runs[i]
		if r.Report.Schedule.Hazard {
			hazards++
			if len(r.Report.Fired) > 0 && len(r.Report.Violations) > 0 {
				caught++
			}
		} else {
			benign++
		}
	}
	if hazards == 0 || benign == 0 || caught == 0 {
		t.Fatalf("campaign mix too weak: %d hazard (%d caught), %d benign", hazards, caught, benign)
	}
}

// TestChaosCampaignByteReproducible: the same campaign, serial and
// parallel, twice — identical digests, identical per-run digests, and a
// byte-identical report.
func TestChaosCampaignByteReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is seconds-long; skipped in -short")
	}
	serial := RunChaosCampaign(ChaosOptions{Seed: 100, Runs: 6, Parallel: 1})
	par := RunChaosCampaign(ChaosOptions{Seed: 100, Runs: 6, Parallel: 4})
	if serial.Digest != par.Digest {
		t.Fatalf("campaign digest diverges: serial %s, parallel %s", serial.Digest, par.Digest)
	}
	for i := range serial.Runs {
		if serial.Runs[i].Digest != par.Runs[i].Digest {
			t.Fatalf("run %d digest diverges: %s vs %s",
				i, serial.Runs[i].Digest, par.Runs[i].Digest)
		}
		if serial.Runs[i].Events != par.Runs[i].Events {
			t.Fatalf("run %d event count diverges", i)
		}
	}
	var a, b bytes.Buffer
	serial.WriteReport(&a)
	par.WriteReport(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("report not byte-identical:\n--- serial\n%s\n--- parallel\n%s", a.String(), b.String())
	}
}

// TestChaosPlantedCorruptionCaughtWithoutRecovery is the oracle's
// end-to-end proof: a deliberately planted media-corrupt rule, with the
// driver's recovery machinery disabled entirely, must be caught by the
// read-back oracle — detection owes nothing to timeouts or retries.
func TestChaosPlantedCorruptionCaughtWithoutRecovery(t *testing.T) {
	sch := chaos.Schedule{Seed: 7777, Hazard: true, Rules: []fault.Rule{
		{Point: fault.MediaCorrupt, Target: "CH0", At: 1_500_000, Nth: 2, Count: 1},
	}}
	run := RunChaosSchedule(sch, ChaosOptions{DisableRecovery: true}, nil, nil)
	if got := run.Report.Fired[fault.MediaCorrupt]; got != 1 {
		t.Fatalf("planted media-corrupt fired %d times, want 1", got)
	}
	found := false
	for _, v := range run.Report.Violations {
		if v.Class == chaos.ClassCorrupt {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted corruption not caught by the oracle (violations: %v)",
			run.Report.Violations)
	}
	if !run.OK() {
		t.Fatalf("caught-corruption run should satisfy the hazard regime, got findings: %v",
			run.Findings)
	}
	if c := run.Report.Counters; c.Retries != 0 || c.Timeouts != 0 {
		t.Fatalf("recovery was supposed to be disabled: %+v", c)
	}
}

// TestChaosRunReplaysDigestIdentical: replaying one schedule yields the
// same trace digest — the property the campaign's replay recipe rests on.
func TestChaosRunReplaysDigestIdentical(t *testing.T) {
	sch := chaos.Generate(55, chaosTargets(), chaos.Params{})
	a := RunChaosSchedule(sch, ChaosOptions{}, trace.NewDigest(), nil)
	b := RunChaosSchedule(sch, ChaosOptions{}, trace.NewDigest(), nil)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("replay digest diverges: %q vs %q", a.Digest, b.Digest)
	}
}

// TestValidateRejectsDataHazardsWithoutCapture: satellite guard — arming
// silent-data-damage rules on a rig that carries no payload bytes is a
// configuration error, not a silently-inert campaign.
func TestValidateRejectsDataHazardsWithoutCapture(t *testing.T) {
	cfg := DefaultConfig().With(WithFaults(fault.Rule{Point: fault.MediaCorrupt, Target: "PHLJ0000", Count: 1}))
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "CaptureData") {
		t.Fatalf("want CaptureData validation error, got %v", err)
	}
	cfg.CaptureData = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("CaptureData on should validate: %v", err)
	}
}
