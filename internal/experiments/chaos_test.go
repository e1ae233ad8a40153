package experiments

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
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
	run := runChaosSchedule(sch, ChaosOptions{DisableRecovery: true}, nil, nil)
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
	sch := chaos.Generate(55, chaosTargets())
	a := runChaosSchedule(sch, ChaosOptions{}, trace.NewDigest(), nil)
	b := runChaosSchedule(sch, ChaosOptions{}, trace.NewDigest(), nil)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("replay digest diverges: %q vs %q", a.Digest, b.Digest)
	}
}

// TestChaosPhaseTiming pins where the verify workload sits in virtual time
// relative to the window chaos.Generate arms its rules in ([1 ms, 8 ms),
// internal/chaos/schedule.go): the tenant must be attached before the window
// opens and the prefill/churn/sweep phases must outlast it, or generated
// faults would fire into bring-up or into an idle rig and campaigns would
// come back green having tested nothing.
func TestChaosPhaseTiming(t *testing.T) {
	const armFrom, armUntil = 1 * sim.Millisecond, 8 * sim.Millisecond
	tb, err := bmstore.NewBMStoreTestbed(verifyRigConfig(1, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	oracle := chaos.NewOracle(1, 4096)
	var attached, verified sim.Time
	diag := tb.RunWatched(func(p *sim.Proc) {
		err := bmStore.Attach(p, tb, []Disk{verifyVolume}, verifyDriver, 1, func(_ int, _ *host.Driver, devs []host.BlockDevice) {
			attached = p.Now()
			if _, err := fio.RunVerify(p, devs, "timing", oracle); err != nil {
				t.Fatal(err)
			}
			verified = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
	}, 5*sim.Second)
	if diag != nil {
		t.Fatal(diag)
	}
	if attached <= 0 || attached >= armFrom {
		t.Errorf("tenant attached at %d ns; rules arm from %d ns, so early ones would fire into bring-up", attached, armFrom)
	}
	if verified <= armUntil {
		t.Errorf("verify workload over at %d ns; rules arm until %d ns, so late ones would fire into an idle rig", verified, armUntil)
	}
}

// TestTornDuringPrefill tears a first-ever write (armed at t=0, second write
// to SSD 0): the rule must fire exactly once and the oracle must notice the
// damage. The tail of a torn first write keeps what the media held before —
// nothing — so the lost blocks read back as zeros rather than as an older
// generation, a class generated schedules never produce because their rules
// arm after prefill has started.
func TestTornDuringPrefill(t *testing.T) {
	rules := []fault.Rule{{Point: fault.WriteTorn, Target: "CH0", Nth: 2, Count: 1}}
	sch := chaos.Schedule{Seed: 42, Hazard: true, Rules: rules}
	run := runChaosSchedule(sch, ChaosOptions{}, nil, nil)
	if got := run.Report.Fired[fault.WriteTorn]; got != 1 || run.Report.Injected != 1 {
		t.Fatalf("torn-write fired %d times (%d injections in all), want exactly 1", got, run.Report.Injected)
	}
	if len(run.Report.Violations) == 0 {
		t.Fatal("a torn first-ever write went unnoticed by the oracle")
	}
	for _, v := range run.Report.Violations {
		if v.Class != chaos.ClassLost && v.Class != chaos.ClassTorn {
			t.Errorf("violation %s: a torn first write can only read back lost or torn", v)
		}
	}
}

// faultRecords matches the fired-fault records of a trace dump.
var faultRecords = regexp.MustCompile(`(?m)^ *\d+ fault .*$`)

// issueRecord matches an SSD's issue record of an NVM read or write; a
// holds the opcode in its top byte.
var issueRecord = regexp.MustCompile(`^ *\d+ ssd +issue +a=0x([0-9a-f]+) `)

// opsBeforeFiring counts, in a trace dump, the SSD commands of opcode op
// issued before the one the first fault record fires on. The SSD evaluates
// a command's rules right after its issue record, with no queue entry
// between, so the firing command's issue is the record just before the
// fault record; ok is false when it is not one of op.
func opsBeforeFiring(dump string, op uint8) (n int, ok bool) {
	last := false
	for _, line := range strings.Split(dump, "\n") {
		if faultRecords.MatchString(line) {
			if !last {
				return n, false
			}
			return n - 1, true
		}
		last = false
		if m := issueRecord.FindStringSubmatch(line); m != nil {
			if a, err := strconv.ParseUint(m[1], 16, 64); err == nil && uint8(a>>56) == op {
				n, last = n+1, true
			}
		}
	}
	return n, false
}

// TestFaultRulesFireOnTheSameCommand walks every data-path fault kind with
// an nth= and a t= rule (stall windows have only t=) on the campaign rig's
// write-then-verify workload. Each rule must fire, be visible as a `fault`
// record in the trace and — for the three CaptureData hazards — damage bytes
// the oracle catches; and a replay of the same schedule must fire it on the
// same commands at the same virtual instants (byte-equal trace dumps) with
// the same evidence (workload tallies, driver counters, oracle violations
// and their LBAs). An nth= rule must fire on the nth matching command: the
// dump's first fault record follows exactly nth−1 issued commands of the
// rule's opcode (writes for torn-write, reads for the rest), so a rule that
// fires one command late on every run fails here, not only its replay.
func TestFaultRulesFireOnTheSameCommand(t *testing.T) {
	faultedRun := func(t *testing.T, sch chaos.Schedule) (string, ChaosRun) {
		var dump bytes.Buffer
		tr := trace.New(trace.Options{Dump: &dump})
		run := runChaosSchedule(sch, ChaosOptions{}, tr, nil)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return dump.String(), run
	}
	for _, tc := range []struct {
		spec   string
		hazard bool
	}{
		{"media-err,nth=5,status=0x281", false},
		{"media-err,t=1ms,status=0x281", false},
		{"media-slow,nth=7,count=3,dur=400us", false},
		{"media-slow,t=1ms,dur=400us", false},
		{"ssd-stall,t=200us,dur=2ms,target=CH0", false},
		{"backend-stall,t=200us,dur=2ms,target=CH0", false},
		{"media-corrupt,nth=9", true},
		{"media-corrupt,t=1ms,count=2", true},
		{"misdirected-read,nth=4", true},
		{"misdirected-read,t=1ms", true},
		{"torn-write,nth=11", true},
		{"torn-write,t=900us,count=2", true},
	} {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			rules, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sch := chaos.Schedule{Seed: 7, Hazard: tc.hazard, Rules: rules}
			dump, run := faultedRun(t, sch)
			fired := faultRecords.FindAllString(dump, -1)
			if run.Report.Injected == 0 || len(fired) == 0 {
				t.Fatalf("rule never fired (injected %d)", run.Report.Injected)
			}
			if tc.hazard && len(run.Report.Violations) == 0 {
				t.Errorf("hazard fired %d times but the oracle saw no damaged block", run.Report.Injected)
			}
			if r := rules[0]; r.Nth > 0 {
				op := uint8(nvme.IORead)
				if r.Point == fault.WriteTorn {
					op = nvme.IOWrite
				}
				if n, ok := opsBeforeFiring(dump, op); !ok || uint64(n) != r.Nth-1 {
					t.Errorf("first firing %s follows %d commands of opcode %#x (fired on one: %v), want nth-1 = %d",
						strings.TrimSpace(fired[0]), n, op, ok, r.Nth-1)
				}
			}
			again, rerun := faultedRun(t, sch)
			if again != dump {
				t.Errorf("replay diverged: fault records %v, then %v", fired, faultRecords.FindAllString(again, -1))
			}
			if !reflect.DeepEqual(run.Report, rerun.Report) || !reflect.DeepEqual(run.Findings, rerun.Findings) {
				t.Errorf("replay evidence diverged:\nfirst:  %+v\nreplay: %+v", run.Report, rerun.Report)
			}
			t.Logf("injected %d, violations %d, first firing: %s",
				run.Report.Injected, len(run.Report.Violations), fired[0])
		})
	}
}
