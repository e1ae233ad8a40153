package experiments

import (
	"testing"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
)

// TestHotUpgradeTenantsResumeNoProcess: Table IX's sixteen tenants are
// closed loops of callbacks, so across a whole two-upgrade run the kernel
// resumes processes (the main one, the console's, the driver's and the
// admin commands') at most once per ten tenant I/Os, fio's budget in
// TestResumeBudget. A tenant that parks in a process per I/O resumes at
// least once per I/O.
func TestHotUpgradeTenantsResumeNoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of simulated hot-upgrade")
	}
	reg := obs.NewRegistry()
	cfg := bmstore.DefaultConfig().With(bmstore.WithMetrics(reg))
	sc := Scale{FWCommitMin: 60 * sim.Millisecond, FWCommitMax: 90 * sim.Millisecond}
	rows, series := hotUpgradeRun(cfg, sc, fio.RandRead)
	if len(rows) != 2 {
		t.Fatalf("%d upgrade rows, want 2", len(rows))
	}
	var ios float64
	for _, n := range series.Bins {
		ios += n
	}
	resumes := reg.Component("sim").Counter("proc_resumes").Value()
	if ios == 0 || float64(resumes) > 0.1*ios {
		t.Errorf("%d process resumes over %.0f tenant I/Os, budget 0.1 per I/O", resumes, ios)
	}
}
