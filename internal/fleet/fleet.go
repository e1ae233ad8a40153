// Package fleet simulates a BM-Store deployment at fleet scale: N
// independent bare-metal hosts, each a full bmstore.Testbed with its own
// virtual-time domain, carrying a seeded tenant placement, driven through a
// rolling firmware hot-upgrade in waves with health gates in between.
//
// Hosts share nothing — no sim.Env, no RNG stream, no channel — so a fleet
// run is embarrassingly parallel and, by the same token, exactly
// reproducible: the report of a 64-host fleet is byte-identical whether the
// hosts ran on one OS thread or sixteen, and any single host can be
// replayed alone (RunHost) to the same per-host digest the fleet run
// produced. That is the property the paper's operators lean on when a wave
// aborts: the report names the host and seed, and the replay is the bug
// reproducer.
//
// The health gate enforces the paper's hot-upgrade contract (§ Table IX /
// Fig. 15): zero tenant-visible I/O errors across the window, every
// upgrade's I/O pause inside the expected band for the configured firmware
// commit window, and clean driver CID books (no zombie commands, no
// spurious completions) after quiesce. Any violation aborts the rollout at
// the end of the offending wave; hosts in later waves are never touched —
// exactly how a production rollout with a canary gate behaves.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"bmstore"
	"bmstore/internal/crash"
	"bmstore/internal/experiments"
	"bmstore/internal/fault"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/stats"
	"bmstore/internal/trace"
)

// Options configures a fleet run. The zero value is not runnable; call
// (Options).withDefaults via Run, which fills every unset field with the
// fleet defaults noted per field.
type Options struct {
	Hosts    int   // fleet size (default 8)
	WaveSize int   // hosts upgraded per rolling wave (default 4)
	Seed     int64 // fleet seed; host i simulates with Seed+i (default 1)

	SSDsPerHost int // backend SSDs, each hot-upgraded in turn (default 1)
	MaxTenants  int // placement draws 1..MaxTenants tenants per host (default 3)

	// Parallel bounds how many hosts simulate concurrently inside a wave
	// (<= 0 means GOMAXPROCS). Reports are byte-identical for any value.
	Parallel int

	Warmup   sim.Time // tenant I/O before the first upgrade (default 300ms)
	Cooldown sim.Time // settle time after each upgrade (default 300ms)

	// QoSIOPS caps each tenant namespace so fleet-scale virtual windows
	// stay tractable; the pause shape is rate-independent (default 8000).
	QoSIOPS float64

	// FWCommitMin/Max bound the SSD firmware activation window, the device
	// property that dominates the pause (defaults 1200ms/1800ms — the fast
	// experiment scale; the paper's P4510 takes 5-8s).
	FWCommitMin sim.Time
	FWCommitMax sim.Time

	// Faults arms the same schedule on every host; FaultsByHost adds
	// per-host rules on top (the planted-failure knob for gate tests).
	Faults       []fault.Rule
	FaultsByHost map[int][]fault.Rule

	// CrashRecovery arms the engine checkpoint/journal layer on every
	// host, so FaultsByHost can plant engine-crash rules on individual
	// hosts mid-wave and the gate verifies they ride through recovery.
	// Hosts without a crash rule run unchanged (the manager only acts
	// when a crash fires). Implies data capture on every host.
	CrashRecovery *crash.Config

	// Traces optionally shares an external tracer family (-trace dumps).
	// When nil the fleet builds an internal digest-only set, so reports
	// always carry per-host and fleet digests. Rig names are "host0042".
	Traces *trace.Set
	// Metrics optionally attaches a per-host registry family.
	Metrics *obs.Set
}

func (o Options) withDefaults() Options {
	if o.Hosts <= 0 {
		o.Hosts = 8
	}
	if o.WaveSize <= 0 {
		o.WaveSize = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SSDsPerHost <= 0 {
		o.SSDsPerHost = 1
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = 300 * sim.Millisecond
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 300 * sim.Millisecond
	}
	if o.QoSIOPS <= 0 {
		o.QoSIOPS = 8000
	}
	if o.FWCommitMin <= 0 {
		o.FWCommitMin = 1200 * sim.Millisecond
	}
	if o.FWCommitMax <= 0 {
		o.FWCommitMax = 1800 * sim.Millisecond
	}
	if o.Traces == nil {
		o.Traces = trace.NewSet(trace.Options{})
	}
	return o
}

// pauseBandMS is the acceptance band for every upgrade's tenant-visible I/O
// pause, derived from the commit window: [0.5 x FWCommitMin, FWCommitMax +
// 400ms], which brackets the golden Table IX pauses (1480-1842ms at the fast
// scale) with the engine's ~100ms processing and queue-drain overhead on top.
func (o Options) pauseBandMS() (lo, hi float64) {
	return 0.5 * ms(o.FWCommitMin), ms(o.FWCommitMax) + 400
}

// UpgradeStats is the Table IX breakdown of one SSD hot-upgrade on one
// host, plus the error (if any) that failed it.
type UpgradeStats struct {
	SSD          int     `json:"ssd"`
	Firmware     string  `json:"firmware"`
	TotalMS      float64 `json:"total_ms"`
	IOPauseMS    float64 `json:"io_pause_ms"`
	SSDResetMS   float64 `json:"ssd_reset_ms"`
	EngineProcMS float64 `json:"engine_proc_ms"`
	Err          string  `json:"err,omitempty"`
}

// HostResult is one host's contribution to the fleet report. All fields
// are computed inside the host's own simulation, so the struct is
// identical however the fleet was scheduled.
type HostResult struct {
	Host    int      `json:"host"`
	Wave    int      `json:"wave"`
	Seed    int64    `json:"seed"`
	Tenants []Tenant `json:"tenants"`

	// Skipped marks a host whose wave never started because an earlier
	// wave aborted the rollout. No simulation ran; every other field
	// except Host/Wave/Seed/Tenants is zero.
	Skipped bool `json:"skipped,omitempty"`

	Ops  uint64 `json:"ops"`  // tenant I/Os completed without error
	Errs uint64 `json:"errs"` // tenant-visible I/O errors (paper: must be 0)

	// Latency percentiles over all tenant I/Os on the host, microseconds.
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`

	Upgrades []UpgradeStats  `json:"upgrades"`
	Counters host.IOCounters `json:"counters"`

	// Crashes / RecoveredMS report the host's engine crash-recovery
	// activity when Options.CrashRecovery armed the subsystem.
	Crashes     int     `json:"crashes,omitempty"`
	RecoveredMS float64 `json:"recovered_ms,omitempty"`

	Digest string `json:"digest"` // the host rig's determinism digest

	Healthy bool   `json:"healthy"`
	Reason  string `json:"reason,omitempty"` // first health-gate violation

	hist *stats.Hist // merged tenant latency, for the fleet rollup
}

// rigName is the host's tracer/registry name inside the fleet's sets.
func rigName(host int) string { return fmt.Sprintf("host%04d", host) }

// Run simulates the whole fleet: placement, per-host workloads, and the
// rolling hot-upgrade, wave by wave with a health gate after each. It
// never returns a nil Result; check Result.Passed / AbortedWave.
func Run(o Options) *Result {
	o = o.withDefaults()
	waves := (o.Hosts + o.WaveSize - 1) / o.WaveSize
	pauseLo, pauseHi := o.pauseBandMS()
	res := &Result{
		Hosts:       o.Hosts,
		WaveSize:    o.WaveSize,
		Waves:       waves,
		Seed:        o.Seed,
		SSDsPerHost: o.SSDsPerHost,
		FWCommitMS:  [2]float64{ms(o.FWCommitMin), ms(o.FWCommitMax)},
		PauseBandMS: [2]float64{pauseLo, pauseHi},
		AbortedWave: -1,
		PerHost:     make([]HostResult, o.Hosts),
	}
	pool := experiments.NewPool(o.Parallel)
	for w := 0; w < waves; w++ {
		lo := w * o.WaveSize
		hi := lo + o.WaveSize
		if hi > o.Hosts {
			hi = o.Hosts
		}
		if res.AbortedWave >= 0 {
			// A previous wave tripped the gate: later hosts are never
			// touched, but they still appear in the report as skipped so
			// the rollout's blast radius is explicit.
			for i := lo; i < hi; i++ {
				res.PerHost[i] = HostResult{
					Host: i, Wave: w, Seed: o.Seed + int64(i),
					Tenants: Place(o.Seed, i, o.MaxTenants), Skipped: true,
				}
			}
			continue
		}
		pool.Each(hi-lo, func(k int) {
			i := lo + k
			hr := runHost(o, i)
			hr.Wave = w
			res.PerHost[i] = hr
		})
		for i := lo; i < hi; i++ {
			if !res.PerHost[i].Healthy {
				res.AbortedWave = w
				break
			}
		}
	}
	res.rollup()
	return res
}

// RunHost replays a single host of the fleet described by o, outside any
// wave. The simulation is a pure function of (fleet seed, host index), so
// the returned digest matches what the full fleet run reported for that
// host — this is the reproducer a gate failure points at.
func RunHost(o Options, hostIdx int) HostResult {
	o = o.withDefaults()
	hr := runHost(o, hostIdx)
	hr.Wave = hostIdx / o.WaveSize
	return hr
}

// ms converts virtual time to milliseconds.
func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// bmStore is the scheme every fleet host runs: tenants on BM-Store
// namespaces, bare metal.
var bmStore = experiments.SchemeNamed("bmstore")

// runHost builds one host's testbed, runs its tenants through the
// hot-upgrade window, and grades the result against the health gate.
func runHost(o Options, hostIdx int) HostResult {
	hr := HostResult{
		Host:    hostIdx,
		Seed:    o.Seed + int64(hostIdx),
		Tenants: Place(o.Seed, hostIdx, o.MaxTenants),
		Healthy: true,
	}
	unhealthy := func(format string, args ...any) {
		if hr.Healthy {
			hr.Healthy = false
			hr.Reason = fmt.Sprintf(format, args...)
		}
	}

	cfg := bmstore.DefaultConfig()
	cfg.Seed = hr.Seed
	cfg.NumSSDs = o.SSDsPerHost
	fwMin, fwMax := o.FWCommitMin, o.FWCommitMax
	cfg.SSD = func(i int) ssd.Config {
		c := ssd.P4510(fmt.Sprintf("FLT%04d-%d", hostIdx, i))
		c.FWCommitMin, c.FWCommitMax = fwMin, fwMax
		return c
	}

	rules := append([]fault.Rule(nil), o.Faults...)
	rules = append(rules, o.FaultsByHost[hostIdx]...)
	cfg = cfg.With(bmstore.WithTrace(o.Traces.Tracer(rigName(hostIdx))),
		bmstore.WithMetrics(o.Metrics.Registry(rigName(hostIdx))), bmstore.WithFaults(rules...))
	// The crash journal redoes payload bytes, so recovery implies capture.
	cfg.CrashRecovery, cfg.CaptureData = o.CrashRecovery, o.CrashRecovery != nil
	// Under injected faults or crashes the tenant runs a recovering driver,
	// as the chaos campaign does: timeouts, bounded retries, abort path.
	dcfg := host.DefaultDriverConfig()
	switch {
	case o.CrashRecovery != nil:
		dcfg = experiments.FleetCrashDriver
	case len(rules) > 0:
		dcfg = experiments.FleetFaultDriver
	}

	tb, err := bmStore.Testbed(cfg)
	if err != nil {
		unhealthy("testbed: %v", err)
		return hr
	}

	// Tenant i's disk is namespace vol<i> striped over every SSD, bound to
	// function i and capped at the fleet's QoS.
	stripe := make([]int, o.SSDsPerHost)
	for s := range stripe {
		stripe[s] = s
	}
	disks := make([]experiments.Disk, len(hr.Tenants))
	jobs := 0
	for i, t := range hr.Tenants {
		disks[i] = experiments.Disk{Name: fmt.Sprintf("vol%d", t.ID), Bytes: 64 << 30, SSDs: stripe, QoSIOPS: o.QoSIOPS}
		jobs = max(jobs, t.Jobs)
	}

	// The liveness watchdog: a host that neither finishes nor deadlocks
	// inside four times its planned window (warmup, one commit+cooldown per
	// SSD, final cooldown) plus 10s is stalled and fails its wave's gate.
	planned := o.Warmup + sim.Time(o.SSDsPerHost)*(o.FWCommitMax+o.Cooldown) + o.Cooldown
	horizon := 4*planned + 10*sim.Second

	hr.hist = &stats.Hist{}
	var ops, errs uint64
	var drivers []*host.Driver
	diag := tb.RunWatched(func(p *sim.Proc) {
		// The tenants are closed loops of callbacks, not processes: each
		// completion books the I/O and submits the next, until Stop.
		tenants := fio.NewTenants(tb.Env, func(oc host.IOOutcome, lat sim.Time) {
			if oc.Status.IsError() {
				errs++
			} else {
				ops++
				hr.hist.Record(int64(lat))
			}
		})
		err := bmStore.Attach(p, tb, disks, dcfg, jobs, func(i int, drv *host.Driver, devs []host.BlockDevice) {
			t := hr.Tenants[i]
			drivers = append(drivers, drv)
			for j, dev := range devs[:t.Jobs] {
				tenants.Start(dev, tb.Env.Rand(fmt.Sprintf("fleet/t%d/%d", t.ID, j)), t.pattern())
			}
		})
		if err != nil {
			unhealthy("%v", err)
			return
		}

		p.Sleep(o.Warmup)
		for s := 0; s < o.SSDsPerHost; s++ {
			rep, err := tb.Console.HotUpgrade(p, s, fmt.Sprintf("VDV2%03d", s+1), 512)
			us := UpgradeStats{
				SSD: s, Firmware: rep.Firmware,
				TotalMS: rep.TotalMS, IOPauseMS: rep.IOPauseMS,
				SSDResetMS: rep.SSDResetMS, EngineProcMS: rep.EngineProcMS,
			}
			if err != nil {
				us.Err = err.Error()
				unhealthy("upgrade ssd%d: %v", s, err)
			}
			hr.Upgrades = append(hr.Upgrades, us)
			p.Sleep(o.Cooldown)
		}
		p.Sleep(o.Cooldown)

		// Clean shutdown: stop the tenants, then wait for each to unwind
		// its in-flight I/O, so the counter snapshot sees quiesced queues.
		tenants.Stop()
		tenants.Drain(p)
		for _, d := range drivers {
			c := d.Counters()
			hr.Counters.Submitted += c.Submitted
			hr.Counters.Completed += c.Completed
			hr.Counters.Timeouts += c.Timeouts
			hr.Counters.Aborts += c.Aborts
			hr.Counters.Retries += c.Retries
			hr.Counters.Stragglers += c.Stragglers
			hr.Counters.Spurious += c.Spurious
			hr.Counters.Reclaimed += c.Reclaimed
			hr.Counters.SlotTimeouts += c.SlotTimeouts
			hr.Counters.ZombiesLeft += c.ZombiesLeft
		}
	}, horizon)

	if tb.Crash != nil {
		st := tb.Crash.Stats()
		hr.Crashes = st.Crashes
		if st.RecoveredAt > st.CrashedAt {
			hr.RecoveredMS = float64(st.RecoveredAt-st.CrashedAt) / 1e6
		}
		if st.Crashes > 0 && st.RecoveredAt == 0 {
			unhealthy("engine crashed at t=%dns and never recovered", st.CrashedAt)
		}
		if st.RecoverErr != "" {
			unhealthy("crash recovery failed: %s", st.RecoverErr)
		}
	}

	hr.Ops, hr.Errs = ops, errs
	if n := hr.hist.N(); n > 0 {
		hr.P50US = float64(hr.hist.Percentile(0.50)) / 1e3
		hr.P99US = float64(hr.hist.Percentile(0.99)) / 1e3
		hr.P999US = float64(hr.hist.Percentile(0.999)) / 1e3
	}
	hr.Digest = o.Traces.Tracer(rigName(hostIdx)).Digest()

	// The health gate, in report order: liveness first, then the paper's
	// zero-error guarantee, then the pause band, then the CID books.
	if diag != nil {
		unhealthy("stalled: %v", diag)
	}
	if errs > 0 {
		unhealthy("%d tenant I/O errors (paper guarantee: zero across hot-upgrade)", errs)
	}
	if ops == 0 {
		unhealthy("no tenant I/O completed")
	}
	if len(hr.Upgrades) != o.SSDsPerHost {
		unhealthy("only %d/%d SSD upgrades ran", len(hr.Upgrades), o.SSDsPerHost)
	}
	pauseLo, pauseHi := o.pauseBandMS()
	for _, u := range hr.Upgrades {
		if u.Err == "" && (u.IOPauseMS < pauseLo || u.IOPauseMS > pauseHi) {
			unhealthy("ssd%d pause %.0fms outside band [%.0f, %.0f]ms",
				u.SSD, u.IOPauseMS, pauseLo, pauseHi)
		}
	}
	if c := hr.Counters; c.ZombiesLeft != 0 || c.Spurious != 0 ||
		c.Submitted != c.Completed+c.Timeouts {
		unhealthy("CID books unbalanced after quiesce: %+v", c)
	}
	return hr
}

// fleetDigest folds the per-host digests into one fleet identity,
// independent of execution order: a sorted host->digest list hashed whole.
func fleetDigest(hosts []HostResult) string {
	idx := make([]int, 0, len(hosts))
	for i, h := range hosts {
		if !h.Skipped {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	sum := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(sum, "host%04d %s\n", hosts[i].Host, hosts[i].Digest)
	}
	return "sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}
