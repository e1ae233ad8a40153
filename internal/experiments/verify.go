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

// recoveringDriver is the tenant driver the campaigns attach: timeouts,
// aborts and bounded retries sized for millisecond-scale injected faults,
// with the default 8 ms engine-crash outage far inside the retry budget
// (~237 ms), so episodes that span a crash come back as retried successes,
// never errors.
func recoveringDriver() host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 3 * sim.Millisecond
	dcfg.MaxRetries = 10
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

// runVerify drives the verify workload on tb: namespace "vol" over both
// SSDs, bound to function 0, a tenant attached with dcfg, and fio.RunVerify
// named name against an oracle seeded with seed. On a rig with crash
// recovery armed it finally reclaims the driver's zombies: post-recovery
// zombies have no straggler CQE coming (their doorbells died with the
// card), so the CID books only balance once they are reclaimed.
func runVerify(tb *bmstore.Testbed, seed int64, name string, dcfg host.DriverConfig) verifyRun {
	v := verifyRun{oracle: chaos.NewOracle(seed, int(ssd.BlockSize))}
	v.diag = tb.RunWatched(func(p *sim.Proc) {
		if v.err = tb.Console.CreateNamespace(p, "vol", 16<<20, []int{0, 1}); v.err != nil {
			return
		}
		if v.err = tb.Console.Bind(p, "vol", 0); v.err != nil {
			return
		}
		if v.drv, v.err = tb.AttachTenant(p, 0, dcfg); v.err != nil {
			return
		}
		v.res, v.err = fio.RunVerify(p, []host.BlockDevice{v.drv.BlockDev(0)},
			fio.VerifySpec{Name: name}, v.oracle)
		if tb.Crash != nil {
			v.drv.ReclaimZombies()
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
		c := v.drv.Counters()
		rep.Counters = chaos.Counters{
			Submitted: c.Submitted, Completed: c.Completed,
			Timeouts: c.Timeouts, Aborts: c.Aborts, Retries: c.Retries,
			Stragglers: c.Stragglers, Spurious: c.Spurious,
			Reclaimed: c.Reclaimed, ZombiesLeft: c.ZombiesLeft,
		}
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
