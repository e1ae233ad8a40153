package experiments

import (
	"fmt"
	"io"

	"bmstore"
	"bmstore/internal/chaos"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/trace"
)

// ChaosOptions configures a chaos campaign: Runs seeded fault schedules
// (seeds Seed, Seed+1, …), each executed on a fresh verify-campaign rig
// under the write-then-verify workload, with every run's evidence checked
// against the chaos invariants (see internal/chaos).
type ChaosOptions struct {
	Seed int64 // base seed (default 1)
	Runs int   // schedules to run (default 20)
	// Parallel caps concurrently-executing rigs (default 1 = serial). Runs
	// are independent simulations; the campaign's output and digest are
	// byte-identical for any value.
	Parallel int
	// DisableRecovery attaches the fail-fast driver (no command timeout, no
	// retries) instead of the recovering one. Generated benign schedules
	// need recovery to verify clean; planted hazard schedules run fine
	// without it, which is how the oracle is proven to catch silent damage
	// with no recovery machinery in the way.
	DisableRecovery bool
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
	// (Seed, Runs), independent of Parallel and wall-clock, so two
	// invocations of the same campaign must produce the same digest.
	Digest string
}

// failed returns the indices of runs with findings.
func (c *ChaosCampaign) failed() []int {
	var idx []int
	for i := range c.Runs {
		if !c.Runs[i].OK() {
			idx = append(idx, i)
		}
	}
	return idx
}

// OK reports whether every run came back green.
func (c *ChaosCampaign) OK() bool { return len(c.failed()) == 0 }

// chaosTargets names the components of the campaign rig that schedules may
// aim rules at: the two SSDs and the three PCIe links.
func chaosTargets() chaos.Targets {
	return chaos.Targets{
		SSDs:  []string{"CH0", "CH1"},
		Links: []string{"host", "ssd0", "ssd1"},
	}
}

// runChaosSchedule executes one schedule on a fresh rig and returns the
// checked run. tr, when non-nil, is attached to the rig and its digest
// recorded (pass trace.NewDigest() for a standalone replay); met, when
// non-nil, collects the rig's metrics.
func runChaosSchedule(sch chaos.Schedule, opts ChaosOptions, tr *trace.Tracer, met *obs.Registry) ChaosRun {
	run := ChaosRun{Seed: sch.Seed}
	run.Report.Schedule = sch
	tb, err := bmstore.NewBMStoreTestbed(verifyRigConfig(sch.Seed, sch.Rules, tr, met))
	if err != nil {
		run.Findings = []chaos.Finding{{Name: "rig-build", Detail: err.Error()}}
		return run
	}
	dcfg := verifyDriver
	if opts.DisableRecovery {
		dcfg = host.DefaultDriverConfig()
	}
	v := runVerify(tb, sch.Seed, fmt.Sprintf("chaos-%d", sch.Seed), dcfg)
	run.Report, run.Findings = v.evidence(tb, sch)
	if tr != nil {
		run.Digest = tr.Digest()
		run.Events = tr.Events()
	}
	return run
}

// RunChaosCampaign generates and executes the campaign on the worker pool.
// Results are in seed order regardless of Parallel.
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
	NewPool(opts.Parallel).Each(opts.Runs, func(i int) {
		sch := chaos.Generate(opts.Seed+int64(i), chaosTargets())
		c.Runs[i] = runChaosSchedule(sch, opts, tracers[i], registries[i])
	})
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
	if failed := c.failed(); len(failed) > 0 {
		fmt.Fprintf(w, "verdict: FAIL (%d/%d runs violated invariants)\n", len(failed), len(c.Runs))
	} else {
		fmt.Fprintf(w, "verdict: PASS (%d/%d runs green)\n", len(c.Runs), len(c.Runs))
	}
}
