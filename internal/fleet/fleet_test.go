package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bmstore/internal/crash"
	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
)

// testOptions returns a fleet sized for tests: the firmware commit window
// shrinks from seconds to tens of milliseconds (it is a device constant,
// not a behaviour) and tenant QoS drops so virtual windows stay cheap. The
// pause band defaults scale with the window, so the gate still bites.
func testOptions(hosts, wave int, seed int64, parallel int) Options {
	return Options{
		Hosts:       hosts,
		WaveSize:    wave,
		Seed:        seed,
		Parallel:    parallel,
		Warmup:      20 * sim.Millisecond,
		Cooldown:    10 * sim.Millisecond,
		QoSIOPS:     2000,
		FWCommitMin: 60 * sim.Millisecond,
		FWCommitMax: 90 * sim.Millisecond,
	}
}

// TestFleetHealthyPassesGate runs a small all-healthy fleet end to end and
// checks the paper's contract: rollout completes, zero tenant I/O errors,
// every upgrade's pause inside the band, books balanced.
func TestFleetHealthyPassesGate(t *testing.T) {
	o := testOptions(8, 4, 7, 0)
	r := Run(o)
	if !r.Passed() {
		for _, h := range r.PerHost {
			if !h.Healthy {
				t.Errorf("host %d unhealthy: %s", h.Host, h.Reason)
			}
		}
		t.Fatalf("healthy fleet aborted at wave %d", r.AbortedWave)
	}
	if r.Errs != 0 {
		t.Errorf("fleet recorded %d tenant I/O errors; paper guarantee is zero", r.Errs)
	}
	if r.Ops == 0 {
		t.Error("fleet recorded no tenant I/O")
	}
	if r.Upgrades != o.Hosts*1 {
		t.Errorf("completed %d upgrades, want %d", r.Upgrades, o.Hosts)
	}
	lo, hi := r.PauseBandMS[0], r.PauseBandMS[1]
	if r.PauseMinMS < lo || r.PauseMaxMS > hi {
		t.Errorf("pauses [%.0f, %.0f]ms escape the band [%.0f, %.0f]ms",
			r.PauseMinMS, r.PauseMaxMS, lo, hi)
	}
	var buf bytes.Buffer
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "verdict: PASS") {
		t.Errorf("report lacks PASS verdict:\n%s", buf.String())
	}
}

// TestFleetDeterminism is the acceptance test for the fleet simulator's
// core property: a 64-host fleet produces a byte-identical report and the
// same fleet digest whether it runs serially or on a parallel pool, at any
// GOMAXPROCS, for multiple seeds.
func TestFleetDeterminism(t *testing.T) {
	hosts := 64
	if testing.Short() {
		hosts = 16
	}
	for _, seed := range []int64{1, 99} {
		var wantReport string
		var wantDigest string
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			for _, parallel := range []int{1, 8} {
				o := testOptions(hosts, 8, seed, parallel)
				r := Run(o)
				if !r.Passed() {
					t.Fatalf("seed %d parallel %d: fleet aborted at wave %d", seed, parallel, r.AbortedWave)
				}
				var buf bytes.Buffer
				if err := r.WriteReport(&buf); err != nil {
					t.Fatal(err)
				}
				if wantReport == "" {
					wantReport, wantDigest = buf.String(), r.FleetDigest
					continue
				}
				if buf.String() != wantReport {
					t.Errorf("seed %d: report differs at GOMAXPROCS=%d parallel=%d", seed, procs, parallel)
				}
				if r.FleetDigest != wantDigest {
					t.Errorf("seed %d: fleet digest %s != %s at GOMAXPROCS=%d parallel=%d",
						seed, r.FleetDigest, wantDigest, procs, parallel)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestFleetWaveAbort plants a permanently failing medium on one host and
// checks the rolling upgrade halts at exactly that host's wave: earlier
// waves complete, the report names the host with a replay line, and every
// host in later waves is skipped untouched.
func TestFleetWaveAbort(t *testing.T) {
	const hosts, wave = 16, 4
	const seed = int64(3)
	// Pick a wave-2 host whose placement actually reads (media-err fails
	// reads), so the planted fault is tenant-visible.
	victim := -1
	for h := 8; h < 12; h++ {
		for _, tn := range Place(seed, h, 3) {
			if tn.Pattern == "randread" || tn.Pattern == "randrw" {
				victim = h
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatalf("no reading tenant placed on hosts 8-11 at seed %d; pick another seed", seed)
	}
	rules, err := fault.ParseSpec("media-err,nth=1,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions(hosts, wave, seed, 0)
	o.FaultsByHost = map[int][]fault.Rule{victim: rules}

	r := Run(o)
	if r.Passed() {
		t.Fatal("fleet with a permanently failing host passed the gate")
	}
	if r.AbortedWave != victim/wave {
		t.Fatalf("aborted at wave %d, want wave %d (victim host %d)", r.AbortedWave, victim/wave, victim)
	}
	for _, h := range r.PerHost {
		switch {
		case h.Wave < r.AbortedWave && !h.Healthy:
			t.Errorf("host %d in pre-abort wave %d is unhealthy: %s", h.Host, h.Wave, h.Reason)
		case h.Wave > r.AbortedWave && !h.Skipped:
			t.Errorf("host %d in wave %d ran after the abort", h.Host, h.Wave)
		case h.Host == victim && h.Healthy:
			t.Errorf("victim host %d reported healthy", victim)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	replay := fmt.Sprintf("bmsctl fleet-run -hosts %d -seed %d -host %d", hosts, seed, victim)
	if !strings.Contains(buf.String(), replay) {
		t.Errorf("report lacks the replay line %q:\n%s", replay, buf.String())
	}
	if !strings.Contains(buf.String(), "verdict: FAIL") {
		t.Error("report lacks FAIL verdict")
	}
}

// TestRunHostReplayMatchesFleet checks the reproducer contract: replaying
// one host alone yields the digest the fleet run reported for it.
func TestRunHostReplayMatchesFleet(t *testing.T) {
	o := testOptions(8, 4, 11, 0)
	r := Run(o)
	for _, k := range []int{0, 5} {
		solo := RunHost(o, k)
		if solo.Digest != r.PerHost[k].Digest {
			t.Errorf("host %d replay digest %s != fleet digest %s", k, solo.Digest, r.PerHost[k].Digest)
		}
		if solo.Ops != r.PerHost[k].Ops || solo.Errs != r.PerHost[k].Errs {
			t.Errorf("host %d replay ops/errs %d/%d != fleet %d/%d",
				k, solo.Ops, solo.Errs, r.PerHost[k].Ops, r.PerHost[k].Errs)
		}
	}
}

// TestPlacementDeterminism pins the placement function: same inputs, same
// tenants; placements vary across hosts; tenant counts respect the cap.
func TestPlacementDeterminism(t *testing.T) {
	varied := false
	first := placementString(Place(42, 0, 3))
	for h := 0; h < 32; h++ {
		a, b := Place(42, h, 3), Place(42, h, 3)
		if placementString(a) != placementString(b) {
			t.Fatalf("host %d: placement not deterministic: %s vs %s",
				h, placementString(a), placementString(b))
		}
		if len(a) < 1 || len(a) > 3 {
			t.Errorf("host %d: %d tenants placed, want 1..3", h, len(a))
		}
		if placementString(a) != first {
			varied = true
		}
	}
	if !varied {
		t.Error("all 32 hosts got the identical placement; placement is not seeded per host")
	}
}

// TestResultJSONRoundTrip checks that a Result survives WriteJSON/Load
// with an identical rendered report — the bmsctl fleet contract.
func TestResultJSONRoundTrip(t *testing.T) {
	r := Run(testOptions(4, 2, 5, 0))
	var direct, viaJSON, blob bytes.Buffer
	if err := r.WriteReport(&direct); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteReport(&viaJSON); err != nil {
		t.Fatal(err)
	}
	if direct.String() != viaJSON.String() {
		t.Errorf("report changed across JSON round-trip:\n--- direct\n%s--- loaded\n%s",
			direct.String(), viaJSON.String())
	}
}

// TestFleetHostCrashMidWave hard-crashes one host's engine in the middle
// of its wave (mid-warmup, with tenant I/O in flight) with crash recovery
// armed: the host must ride the outage on the driver's timeout/retry
// machinery, recover, finish its upgrade, and still pass the health gate —
// so the rollout completes. A second run with recovery disabled must fail
// the gate at exactly that host, proving the scenario is load-bearing.
func TestFleetHostCrashMidWave(t *testing.T) {
	const hosts, wave, seed = 4, 2, 7
	const victim = 1
	rules, err := fault.ParseSpec("engine-crash,t=10ms")
	if err != nil {
		t.Fatal(err)
	}

	o := testOptions(hosts, wave, seed, 0)
	o.FaultsByHost = map[int][]fault.Rule{victim: rules}
	o.CrashRecovery = &crash.Config{}
	r := Run(o)
	vh := r.PerHost[victim]
	if vh.Crashes != 1 {
		t.Fatalf("victim host recorded %d crashes, want 1", vh.Crashes)
	}
	if vh.RecoveredMS <= 0 {
		t.Errorf("victim host has no recovery time: %+v", vh)
	}
	if !vh.Healthy {
		t.Errorf("victim host failed the gate despite recovery: %s", vh.Reason)
	}
	if !r.Passed() {
		t.Fatalf("fleet with recovering host aborted at wave %d", r.AbortedWave)
	}
	for _, h := range r.PerHost {
		if h.Host != victim && h.Crashes != 0 {
			t.Errorf("host %d crashed %d times without a planted rule", h.Host, h.Crashes)
		}
	}

	o.CrashRecovery = &crash.Config{DisableRecovery: true}
	r = Run(o)
	if r.Passed() {
		t.Fatal("fleet passed the gate with the victim host dead and recovery disabled")
	}
	if r.AbortedWave != victim/wave {
		t.Fatalf("aborted at wave %d, want wave %d", r.AbortedWave, victim/wave)
	}
	if h := r.PerHost[victim]; h.Healthy {
		t.Error("dead victim host reported healthy")
	}
}

// TestFleetHostTakesFusedPath: a fleet host always carries a digest tracer,
// and that used to put every host on the process-per-command path — ~19.5
// process resumes per tenant I/O. On the fused path what is left is the
// tenant job's own submit and completion hand-offs plus the control plane.
func TestFleetHostTakesFusedPath(t *testing.T) {
	// Default options: the fast-scale firmware window and the 8000-IOPS cap
	// give the host thousands of tenant I/Os to amortise the control plane.
	o := Options{Seed: 7, Metrics: obs.NewSet(obs.Options{})}
	hr := RunHost(o, 0)
	if !hr.Healthy || hr.Ops == 0 {
		t.Fatalf("host unhealthy (%s) or idle (%d ops)", hr.Reason, hr.Ops)
	}
	var resumes, spawns uint64
	for _, c := range o.Metrics.Registry(rigName(0)).Snapshot().Components {
		if c.Name != "sim" {
			continue
		}
		for _, ctr := range c.Counters {
			switch ctr.Name {
			case "proc_resumes":
				resumes = ctr.Value
			case "procs_spawned":
				spawns = ctr.Value
			}
		}
	}
	if resumes == 0 {
		t.Fatal("the host's registry recorded no kernel counters")
	}
	if perIO := float64(resumes) / float64(hr.Ops); perIO > 5 {
		t.Errorf("%.1f process resumes per tenant I/O (%d over %d ops); a traced host is off the fused path",
			perIO, resumes, hr.Ops)
	}
	if spawns > hr.Ops/10 {
		t.Errorf("%d processes spawned for %d tenant I/Os; something still spawns per command", spawns, hr.Ops)
	}
}
