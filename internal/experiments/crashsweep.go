package experiments

import (
	"fmt"
	"io"

	"bmstore"
	"bmstore/internal/chaos"
	"bmstore/internal/crash"
	"bmstore/internal/fault"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// trPoint is the record foldDigests folds per crash point.
var trPoint = trace.NewKey("sweep", "point")

// The crash-point sweep kills the BM-Engine at every pipeline-stage
// boundary and verifies recovery at each one. Per seed it runs one probe
// rig — identical configuration, no crash, full timeline sampling — picks
// a representative mid-run request whose timeline carries every stage
// mark, and uses those timestamps (doorbell, dispatch, mapping, NAND, DMA,
// CQE, ...) as the crash instants. Each instant then gets its own rig with
// an engine-crash@t rule, crash recovery armed, and the verify campaign's
// write-then-verify oracle workload (verify.go); the per-point verdict
// combines the oracle's data-integrity violations with the crash-regime
// invariant checks.

// CrashSweepOptions configures a sweep.
type CrashSweepOptions struct {
	Seed  int64 // base seed (default 1)
	Seeds int   // seeds swept: Seed, Seed+1, ... (default 1)
	// Parallel caps concurrently-executing rigs (default 1). Runs are
	// independent simulations; the reports and digest are byte-identical
	// for any value.
	Parallel int
	// Crash is the recovery configuration applied to every point run —
	// including, for planted-violation tests, TruncateJournal /
	// TamperCheckpoint / DisableRecovery.
	Crash crash.Config
}

// CrashSweep is a finished sweep: one report per seed, in seed order, plus
// the folded trace digest over every point rig.
type CrashSweep struct {
	Opts    CrashSweepOptions
	Reports []*crash.SweepReport
	Digest  string
}

// Clean reports whether every point of every seed passed.
func (s *CrashSweep) Clean() bool {
	for _, r := range s.Reports {
		if !r.Clean() {
			return false
		}
	}
	return true
}

// WriteReport renders the sweep deterministically, with a copy-pasteable
// replay command for every failing point.
func (s *CrashSweep) WriteReport(w io.Writer) {
	for _, r := range s.Reports {
		r.WriteText(w)
		for i, p := range r.Points {
			if len(p.Violations)+len(p.Findings) > 0 {
				fmt.Fprintf(w, "  replay: bmsctl crash-sweep -seed %d -point %d\n", r.Seed, i)
			}
		}
	}
	fmt.Fprintf(w, "sweep digest: %s\n", s.Digest)
	if s.Clean() {
		fmt.Fprintf(w, "verdict: PASS\n")
	} else {
		fmt.Fprintf(w, "verdict: FAIL\n")
	}
}

// crashInstant is one discovered crash point.
type crashInstant struct {
	Stage string
	At    int64
}

// discoverCrashInstants runs the crash-free probe rig for one seed and
// returns the crash instants: the stage-mark timestamps of one
// deterministic, fully-marked, mid-run request timeline.
func discoverCrashInstants(seed int64) ([]crashInstant, error) {
	cfg := verifyRigConfig(seed, nil, nil, nil)
	tb, err := bmstore.NewBMStoreTestbed(cfg,
		bmstore.WithTimeline(timeline.Config{SampleEvery: 1, MaxSamples: 1 << 16}))
	if err != nil {
		return nil, fmt.Errorf("crash sweep: probe rig: %w", err)
	}
	v := runVerify(tb, seed, fmt.Sprintf("crash-probe-%d", seed), verifyDriver)
	if v.err != nil {
		return nil, fmt.Errorf("crash sweep: probe workload: %w", v.err)
	}
	if v.diag != nil {
		return nil, fmt.Errorf("crash sweep: probe stalled at t=%dns", v.diag.At)
	}
	dump := tb.Metrics().Timeline().Dump("probe")
	rec := pickProbeRec(dump.Samples)
	if rec == nil {
		return nil, fmt.Errorf("crash sweep: probe produced no fully-marked timeline (of %d samples)", len(dump.Samples))
	}
	instants := make([]crashInstant, 0, int(timeline.NumPoints))
	for p := timeline.Point(0); p < timeline.NumPoints; p++ {
		instants = append(instants, crashInstant{Stage: p.String(), At: rec.TS[p]})
	}
	return instants, nil
}

// pickProbeRec chooses the crash-instant donor deterministically: among
// requests whose timeline carries every stage mark, the one whose ordinal
// is nearest to the middle of the run (ties to the lower Seq) — a request
// in steady state, past warm-up and clear of the drain.
func pickProbeRec(samples []*timeline.Rec) *timeline.Rec {
	var full []*timeline.Rec
	var maxSeq uint64
	for _, r := range samples {
		ok := true
		for p := timeline.Point(0); p < timeline.NumPoints; p++ {
			if !r.Has(p) {
				ok = false
				break
			}
		}
		if ok {
			full = append(full, r)
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
	}
	if len(full) == 0 {
		return nil
	}
	mid := maxSeq / 2
	best := full[0]
	bestDist := seqDist(best.Seq, mid)
	for _, r := range full[1:] {
		if d := seqDist(r.Seq, mid); d < bestDist || (d == bestDist && r.Seq < best.Seq) {
			best, bestDist = r, d
		}
	}
	return best
}

func seqDist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// runCrashPoint executes one crash-point rig and fills its report.
func runCrashPoint(seed int64, in crashInstant, cc crash.Config, tr *trace.Tracer) crash.PointReport {
	pt := crash.PointReport{Stage: in.Stage, CrashAt: in.At}
	rules := []fault.Rule{{Point: fault.EngineCrash, At: in.At}}
	tb, err := bmstore.NewBMStoreTestbed(verifyRigConfig(seed, rules, tr, nil), bmstore.WithCrashRecovery(cc))
	if err != nil {
		pt.Findings = append(pt.Findings, "rig-build: "+err.Error())
		return pt
	}
	v := runVerify(tb, seed, fmt.Sprintf("crash-%d-%s", seed, in.Stage), verifyDriver)
	rep, findings := v.evidence(tb, chaos.Schedule{Seed: seed})
	c := rep.Counters
	pt.Timeouts, pt.Retries = c.Timeouts, c.Retries
	pt.Stragglers, pt.Reclaimed = c.Stragglers, c.Reclaimed
	pt.Writes, pt.Reads = int(rep.Writes), int(rep.Reads)
	pt.InDoubt = int(rep.InDoubt)
	for _, viol := range rep.Violations {
		pt.Violations = append(pt.Violations, viol.String())
	}
	for _, f := range findings {
		if f.Name == "integrity" {
			continue // the point report already lists the violations themselves
		}
		pt.Findings = append(pt.Findings, f.String())
	}

	// Crash-specific invariants: the crash fired exactly once, recovery
	// completed, and it completed inside its deterministic budget.
	flt := tb.Env.Faults()
	st := tb.Crash.Stats()
	pt.Injected = flt.InjectedBy(fault.EngineCrash) > 0
	pt.Replayed = st.Replayed
	pt.DroppedJournal = st.Dropped
	ecfg := tb.Crash.Config()
	switch {
	case !pt.Injected:
		pt.Findings = append(pt.Findings, fmt.Sprintf("crash-not-fired: instant %dns never reached", in.At))
	case flt.InjectedBy(fault.EngineCrash) != 1 || st.Crashes != 1:
		pt.Findings = append(pt.Findings, fmt.Sprintf("crash-count: fired %d times, manager saw %d",
			flt.InjectedBy(fault.EngineCrash), st.Crashes))
	case st.RecoverErr != "":
		pt.Findings = append(pt.Findings, "recovery-error: "+st.RecoverErr)
	case !ecfg.DisableRecovery && st.RecoveredAt == 0:
		pt.Findings = append(pt.Findings, "recovery-missing: crash at t="+fmt.Sprint(st.CrashedAt)+" never recovered")
	case st.RecoveredAt > 0:
		pt.RecoveryNS = st.RecoveredAt - st.CrashedAt
		budget := int64(crash.Outage) + int64(crash.RebootLatency) +
			int64(st.Replayed)*int64(crash.ReplayPerRecord) + int64(5*sim.Millisecond)
		if pt.RecoveryNS > budget {
			pt.Findings = append(pt.Findings, fmt.Sprintf("recovery-unbounded: %dns > budget %dns", pt.RecoveryNS, budget))
		}
	}
	if tr != nil {
		pt.Digest = tr.Digest()
	}
	return pt
}

// RunCrashSweep discovers the crash instants for every seed and runs every
// (seed, stage) crash-point rig, fanning the independent simulations out on
// a bounded pool. Reports are in seed order with points in pipeline order;
// the folded digest is a pure function of (Seed, Seeds, Crash config).
func RunCrashSweep(opts CrashSweepOptions) (*CrashSweep, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 1
	}
	if opts.Parallel <= 0 {
		opts.Parallel = 1
	}
	pool := NewPool(opts.Parallel)

	// Phase 1: one probe per seed discovers that seed's crash instants.
	instants := make([][]crashInstant, opts.Seeds)
	errs := make([]error, opts.Seeds)
	pool.Each(opts.Seeds, func(i int) {
		instants[i], errs[i] = discoverCrashInstants(opts.Seed + int64(i))
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", opts.Seed+int64(i), err)
		}
	}

	// Phase 2: every (seed, point) cell is an independent rig.
	perSeed := len(instants[0])
	set := trace.NewSet(trace.Options{})
	tracers := make([]*trace.Tracer, opts.Seeds*perSeed)
	for i := range tracers {
		tracers[i] = set.Tracer(fmt.Sprintf("crash-s%04d-p%02d", i/perSeed, i%perSeed))
	}
	points := make([]crash.PointReport, opts.Seeds*perSeed)
	pool.Each(len(points), func(i int) {
		seed := opts.Seed + int64(i/perSeed)
		points[i] = runCrashPoint(seed, instants[i/perSeed][i%perSeed], opts.Crash, tracers[i])
	})

	sw := &CrashSweep{Opts: opts, Digest: set.Digest()}
	for s := 0; s < opts.Seeds; s++ {
		rep := &crash.SweepReport{Seed: opts.Seed + int64(s)}
		rep.Points = append(rep.Points, points[s*perSeed:(s+1)*perSeed]...)
		sw.Reports = append(sw.Reports, rep)
	}
	// Per-seed digest: fold the seed's point digests through a dedicated
	// tracer set so the value is reproducible from the parts.
	for _, rep := range sw.Reports {
		rep.Digest = foldDigests(rep.Points)
	}
	return sw, nil
}

// foldDigests combines point digests into one stable per-seed value.
func foldDigests(points []crash.PointReport) string {
	h := trace.NewDigest()
	for i, p := range points {
		h.Emit(int64(i), trPoint, uint64(len(p.Violations)), uint64(len(p.Findings)), p.Digest)
	}
	return h.Digest()
}

// RunCrashPoint replays one (seed, point) cell exactly as the sweep ran it
// — probe first to rediscover the instants, then the single crash rig —
// so a failing point reproduces standalone from its replay command.
func RunCrashPoint(seed int64, point int, cc crash.Config) (crash.PointReport, error) {
	instants, err := discoverCrashInstants(seed)
	if err != nil {
		return crash.PointReport{}, err
	}
	if point < 0 || point >= len(instants) {
		return crash.PointReport{}, fmt.Errorf("crash sweep: point %d out of range [0,%d)", point, len(instants))
	}
	return runCrashPoint(seed, instants[point], cc, trace.NewDigest()), nil
}
