package bmstore

import (
	"testing"

	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// TestChaosPhaseTiming pins where the verify workload sits in virtual time
// relative to the window chaos.Generate arms its rules in ([1 ms, 8 ms),
// internal/chaos/schedule.go): the tenant must be attached before the window
// opens and the prefill/churn/sweep phases must outlast it, or generated
// faults would fire into bring-up or into an idle rig and campaigns would
// come back green having tested nothing.
func TestChaosPhaseTiming(t *testing.T) {
	const armFrom, armUntil = 1 * sim.Millisecond, 8 * sim.Millisecond
	tb, err := NewBMStoreTestbed(chaosConfig(1, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	oracle := chaos.NewOracle(1, 4096)
	var attached, verified sim.Time
	diag := tb.RunWatched(func(p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", 16<<20, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			t.Fatal(err)
		}
		drv, err := tb.AttachTenant(p, 0, chaosDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		attached = p.Now()
		if _, err = fio.RunVerify(p, []host.BlockDevice{drv.BlockDev(0)},
			fio.VerifySpec{Name: "timing"}, oracle); err != nil {
			t.Fatal(err)
		}
		verified = p.Now()
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
	run := RunChaosSchedule(sch, ChaosOptions{}, nil, nil)
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
