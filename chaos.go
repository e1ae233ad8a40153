package bmstore

import (
	"fmt"
	"io"
	"sync"

	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// ChaosOptions configures a chaos campaign: Runs seeded fault schedules
// (seeds Seed, Seed+1, …), each executed on a fresh two-SSD BM-Store rig
// under a write-then-verify workload, with every run's evidence checked
// against the chaos invariants (see internal/chaos).
type ChaosOptions struct {
	Seed int64 // base seed (default 1)
	Runs int   // schedules to run (default 20)
	// Parallel caps concurrently-executing rigs (default 1 = serial). Runs
	// are independent simulations; the campaign's output and digest are
	// byte-identical for any value.
	Parallel int
	// Horizon is the per-run liveness watchdog (virtual time, default 5s):
	// a run that has not finished by then is reported as a liveness
	// violation with the blocked processes named, instead of hanging.
	Horizon sim.Time
	// DisableRecovery attaches the fail-fast driver (no command timeout, no
	// retries) instead of the recovering one. Generated benign schedules
	// need recovery to verify clean; planted hazard schedules run fine
	// without it, which is how the oracle is proven to catch silent damage
	// with no recovery machinery in the way.
	DisableRecovery bool
	// Params tunes the schedule generator.
	Params chaos.Params
	// Metrics, when non-nil, attaches a per-run metrics registry to every
	// rig. Metrics are passive observers: attaching them must not move a
	// single digest (the trace equivalence tests pin this for campaigns).
	Metrics *obs.Set
}

// ChaosRun is one executed schedule: its evidence and the checker's verdict.
type ChaosRun struct {
	Seed     int64
	Report   chaos.Report
	Findings []chaos.Finding
	Digest   string // the run's trace digest (replays must match)
	Events   uint64
}

// OK reports whether the run violated no invariant.
func (r *ChaosRun) OK() bool { return len(r.Findings) == 0 }

// ChaosCampaign is a finished campaign.
type ChaosCampaign struct {
	Opts ChaosOptions
	Runs []ChaosRun
	// Digest folds every run's trace digest; it is a pure function of
	// (Seed, Runs, Params), independent of Parallel and wall-clock, so two
	// invocations of the same campaign must produce the same digest.
	Digest string
}

// Failed returns the indices of runs with findings.
func (c *ChaosCampaign) Failed() []int {
	var idx []int
	for i := range c.Runs {
		if !c.Runs[i].OK() {
			idx = append(idx, i)
		}
	}
	return idx
}

// OK reports whether every run came back green.
func (c *ChaosCampaign) OK() bool { return len(c.Failed()) == 0 }

// chaosTargets names the components of the campaign rig that schedules may
// aim rules at: the two SSDs and the three PCIe links.
func chaosTargets() chaos.Targets {
	return chaos.Targets{
		SSDs:  []string{"CH0", "CH1"},
		Links: []string{"host", "ssd0", "ssd1"},
	}
}

// chaosConfig is the campaign rig: two small SSDs behind the engine with
// 1 MB chunks (so the verify region stripes across both), payload capture
// on, and the schedule's rules armed.
func chaosConfig(seed int64, rules []fault.Rule, tr *trace.Tracer, met *obs.Registry) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = 2
	cfg.CaptureData = true
	cfg.Engine.ChunkBytes = 1 << 20
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510(fmt.Sprintf("CH%d", i))
		c.CapacityBytes = 1 << 30
		return c
	}
	return cfg.With(WithFaults(rules...), WithTrace(tr), WithMetrics(met))
}

// chaosDriverConfig is the recovering tenant driver: timeouts, aborts and
// bounded retries sized for millisecond-scale injected faults.
func chaosDriverConfig() host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout = 3 * sim.Millisecond
	dcfg.MaxRetries = 10
	dcfg.RetryBackoff = 200 * sim.Microsecond
	return dcfg
}

// RunChaosSchedule executes one schedule on a fresh rig and returns the
// checked run. tr, when non-nil, is attached to the rig and its digest
// recorded (pass trace.NewDigest() for a standalone replay); met, when
// non-nil, collects the rig's metrics.
func RunChaosSchedule(sch chaos.Schedule, opts ChaosOptions, tr *trace.Tracer, met *obs.Registry) ChaosRun {
	run := ChaosRun{Seed: sch.Seed}
	run.Report.Schedule = sch
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = 5 * sim.Second
	}

	tb, err := NewBMStoreTestbed(chaosConfig(sch.Seed, sch.Rules, tr, met))
	if err != nil {
		run.Findings = []chaos.Finding{{Name: "rig-build", Detail: err.Error()}}
		return run
	}
	dcfg := chaosDriverConfig()
	if opts.DisableRecovery {
		dcfg = host.DefaultDriverConfig()
	}
	oracle := chaos.NewOracle(sch.Seed, int(ssd.BlockSize))

	var drv *host.Driver
	var vres *fio.VerifyResult
	var setupErr error
	diag := tb.RunWatched(func(p *sim.Proc) {
		if setupErr = tb.Console.CreateNamespace(p, "vol", 16<<20, []int{0, 1}); setupErr != nil {
			return
		}
		if setupErr = tb.Console.Bind(p, "vol", 0); setupErr != nil {
			return
		}
		if drv, setupErr = tb.AttachTenant(p, 0, dcfg); setupErr != nil {
			return
		}
		vres, setupErr = fio.RunVerify(p, []host.BlockDevice{drv.BlockDev(0)},
			fio.VerifySpec{Name: fmt.Sprintf("chaos-%d", sch.Seed)}, oracle)
	}, horizon)

	flt := tb.Env.Faults()
	run.Report.Injected = flt.Injected()
	run.Report.Fired = make(map[fault.Point]uint64)
	for _, pt := range []fault.Point{fault.MediaCorrupt, fault.WriteTorn, fault.ReadMisdirect} {
		if n := flt.InjectedBy(pt); n > 0 {
			run.Report.Fired[pt] = n
		}
	}
	if drv != nil {
		c := drv.Counters()
		run.Report.Counters = chaos.Counters{
			Submitted: c.Submitted, Completed: c.Completed,
			Timeouts: c.Timeouts, Aborts: c.Aborts, Retries: c.Retries,
			Stragglers: c.Stragglers, Spurious: c.Spurious,
			Reclaimed: c.Reclaimed, ZombiesLeft: c.ZombiesLeft,
		}
	}
	if vres != nil {
		run.Report.Writes = vres.Writes
		run.Report.Reads = vres.Reads
		run.Report.WriteErrs = vres.WriteErrs
		run.Report.ReadErrs = vres.ReadErrs
	}
	run.Report.InDoubt = oracle.InDoubt()
	run.Report.Violations = oracle.Violations()
	run.Report.ViolOverflow = oracle.Overflow()
	if diag != nil {
		run.Report.Stall = &chaos.Stall{
			At: int64(diag.At), HorizonHit: diag.HorizonHit,
			Pending: diag.Pending, Blocked: diag.Blocked,
		}
	}

	if setupErr != nil {
		run.Findings = append(run.Findings,
			chaos.Finding{Name: "workload-setup", Detail: setupErr.Error()})
	}
	run.Findings = append(run.Findings, chaos.Check(&run.Report)...)
	if tr != nil {
		run.Digest = tr.Digest()
		run.Events = tr.Events()
	}
	return run
}

// RunChaosCampaign generates and executes the campaign. Results are in seed
// order regardless of Parallel. The campaign cannot use the experiments
// sweep pool (that package imports this one), so it carries its own bounded
// worker loop.
func RunChaosCampaign(opts ChaosOptions) *ChaosCampaign {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Runs <= 0 {
		opts.Runs = 20
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	c := &ChaosCampaign{Opts: opts, Runs: make([]ChaosRun, opts.Runs)}
	set := trace.NewSet(trace.Options{})
	tracers := make([]*trace.Tracer, opts.Runs)
	for i := range tracers {
		tracers[i] = set.Tracer(fmt.Sprintf("chaos%04d", i))
	}
	registries := make([]*obs.Registry, opts.Runs)
	if opts.Metrics != nil {
		for i := range registries {
			registries[i] = opts.Metrics.Registry(fmt.Sprintf("chaos%04d", i))
		}
	}
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < opts.Runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sch := chaos.Generate(opts.Seed+int64(i), chaosTargets(), opts.Params)
			c.Runs[i] = RunChaosSchedule(sch, opts, tracers[i], registries[i])
		}(i)
	}
	wg.Wait()
	c.Digest = set.Digest()
	return c
}

// WriteReport writes the deterministic campaign report: one line per run,
// findings and a copy-pasteable replay command for every failure, the
// folded digest, and the verdict.
func (c *ChaosCampaign) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "chaos campaign: %d runs, seeds %d..%d\n",
		len(c.Runs), c.Opts.Seed, c.Opts.Seed+int64(len(c.Runs))-1)
	for i := range c.Runs {
		r := &c.Runs[i]
		regime := "benign"
		if r.Report.Schedule.Hazard {
			regime = fmt.Sprintf("hazard%v", r.Report.Schedule.HazardPoints())
		}
		verdict := "ok"
		if !r.OK() {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  run %3d seed %-6d %-42s rules=%d injected=%-3d w=%-4d r=%-4d viol=%-3d %s %s\n",
			i, r.Seed, regime, len(r.Report.Schedule.Rules), r.Report.Injected,
			r.Report.Writes, r.Report.Reads,
			len(r.Report.Violations)+r.Report.ViolOverflow, r.Digest, verdict)
		if !r.OK() {
			for _, f := range r.Findings {
				fmt.Fprintf(w, "      finding: %s\n", f)
			}
			fmt.Fprintf(w, "      replay:  bmsctl chaos %d,1\n", r.Seed)
		}
	}
	fmt.Fprintf(w, "campaign digest: %s\n", c.Digest)
	if failed := c.Failed(); len(failed) > 0 {
		fmt.Fprintf(w, "verdict: FAIL (%d/%d runs violated invariants)\n", len(failed), len(c.Runs))
	} else {
		fmt.Fprintf(w, "verdict: PASS (%d/%d runs green)\n", len(c.Runs), len(c.Runs))
	}
}
