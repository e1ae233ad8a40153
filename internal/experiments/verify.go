package experiments

import (
	"fmt"

	"bmstore"
	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// The verify campaign is what the chaos campaign and the crash-point sweep
// both run: a fresh two-SSD BM-Store rig with a rule schedule armed, one
// tenant driving fio's write-then-verify workload against the chaos oracle
// under a liveness watchdog, and the run's evidence handed to the chaos
// invariant checker. The two differ only in the rules they arm and in
// whether the rig carries crash recovery.

// verifyHorizon is every verify run's liveness watchdog (virtual time): a
// run that has not finished by then is reported as a stall with the blocked
// processes named, instead of hanging.
const verifyHorizon = 5 * sim.Second

// verifyRigConfig is the campaign rig: two small SSDs (CH0, CH1) behind the
// engine with 1 MB chunks, so the verify region stripes across both,
// payload capture on, and rules armed. tr and met may be nil.
func verifyRigConfig(seed int64, rules []fault.Rule, tr *trace.Tracer, met *obs.Registry) bmstore.Config {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = 2
	cfg.CaptureData = true
	cfg.Engine.ChunkBytes = 1 << 20
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510(fmt.Sprintf("CH%d", i))
		c.CapacityBytes = 1 << 30
		return c
	}
	return cfg.With(bmstore.WithFaults(rules...), bmstore.WithTrace(tr), bmstore.WithMetrics(met))
}

// The recovering drivers: the stock driver plus command timeouts, aborts and
// bounded retries, attempt n backing off 200 µs << n. Each is sized for the
// outage its rigs must ride out; the retry budget is every attempt's timeout
// plus every back-off.
var (
	// verifyDriver is the tenant of the verify campaign (chaos and crash
	// sweep): 3 ms timeouts for millisecond-scale injected faults, and a
	// ~237 ms budget that holds the default 8 ms engine-crash outage many
	// times over, so episodes that span a crash come back as retried
	// successes, never errors.
	verifyDriver = recoveringDriver(3*sim.Millisecond, 10)
	// FleetFaultDriver is a fleet host's tenant under an injected fault
	// schedule: a ~96 ms budget for faults that land between upgrades.
	FleetFaultDriver = recoveringDriver(5*sim.Millisecond, 8)
	// FleetCrashDriver is a fleet host's tenant with crash recovery armed:
	// a crash's retry storm can spill into an upgrade's I/O pause, so its
	// ~884 ms budget rides out both back to back.
	FleetCrashDriver = recoveringDriver(5*sim.Millisecond, 12)
)

func recoveringDriver(timeout sim.Time, retries int) host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = timeout
	dcfg.MaxRetries = retries
	dcfg.RetryBackoff = 200 * sim.Microsecond
	return dcfg
}

// verifyRun is what one verify workload leaves behind. drv and res are nil
// when setup failed before they existed; diag is nil when the workload
// finished under the watchdog.
type verifyRun struct {
	drv    *host.Driver
	res    *fio.VerifyResult
	oracle *chaos.Oracle
	diag   *sim.Diagnosis
	err    error // namespace, bind, attach or verify setup
}

// verifyVolume is the campaign's disk: a 16 MiB namespace over both SSDs.
var verifyVolume = Disk{Name: "vol", Bytes: 16 << 20, SSDs: []int{0, 1}}

// runVerify drives the verify workload on tb: verifyVolume attached to the
// tenant with dcfg, and fio.RunVerify named name against an oracle seeded
// with seed. On a rig with crash recovery armed it finally reclaims the
// driver's zombies: post-recovery zombies have no straggler CQE coming (their
// doorbells died with the card), so the CID books only balance once they are
// reclaimed.
func runVerify(tb *bmstore.Testbed, seed int64, name string, dcfg host.DriverConfig) verifyRun {
	v := verifyRun{oracle: chaos.NewOracle(seed, int(ssd.BlockSize))}
	v.diag = tb.RunWatched(func(p *sim.Proc) {
		err := bmStore.Attach(p, tb, []Disk{verifyVolume}, dcfg, 1, func(_ int, drv *host.Driver, devs []host.BlockDevice) {
			v.drv = drv
			v.res, v.err = fio.RunVerify(p, devs, fio.VerifySpec{Name: name}, v.oracle)
			if tb.Crash != nil {
				drv.ReclaimZombies()
			}
		})
		if err != nil {
			v.err = err
		}
	}, verifyHorizon)
	return v
}

// evidence assembles the chaos checker's report for a finished run on tb
// under schedule sch, and checks it: the findings are the setup error, if
// any, then every invariant the report breaks. The crash regime applies
// when the rig carries crash recovery.
func (v *verifyRun) evidence(tb *bmstore.Testbed, sch chaos.Schedule) (chaos.Report, []chaos.Finding) {
	flt := tb.Env.Faults()
	rep := chaos.Report{
		Schedule: sch,
		Crash:    tb.Crash != nil,
		Injected: flt.Injected(),
		Fired:    make(map[fault.Point]uint64),
	}
	for _, pt := range []fault.Point{fault.MediaCorrupt, fault.WriteTorn, fault.ReadMisdirect} {
		if n := flt.InjectedBy(pt); n > 0 {
			rep.Fired[pt] = n
		}
	}
	if v.drv != nil {
		rep.Counters = v.drv.Counters()
	}
	if v.res != nil {
		rep.Writes, rep.Reads = v.res.Writes, v.res.Reads
		rep.WriteErrs, rep.ReadErrs = v.res.WriteErrs, v.res.ReadErrs
	}
	rep.InDoubt = v.oracle.InDoubt()
	rep.Violations = v.oracle.Violations()
	rep.ViolOverflow = v.oracle.Overflow()
	if v.diag != nil {
		rep.Stall = &chaos.Stall{
			At: int64(v.diag.At), HorizonHit: v.diag.HorizonHit,
			Pending: v.diag.Pending, Blocked: v.diag.Blocked,
		}
	}
	var findings []chaos.Finding
	if v.err != nil {
		findings = append(findings, chaos.Finding{Name: "workload-setup", Detail: v.err.Error()})
	}
	return rep, append(findings, chaos.Check(&rep)...)
}
