package main

import (
	"fmt"
	"runtime"
	"time"

	"bmstore/internal/fleet"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
)

// paperEngineProcMS is Table IX's BMS-Engine processing time per upgrade.
const paperEngineProcMS = 100.0

// fleetRollout drives fleet.Run: every host carries the default digest
// tracer, so the data path is the classic process-per-command one the
// fault, chaos, crash and figures gates run, and the control plane
// (MCTP/NVMe-MI provisioning, hot-upgrade quiesce and resume) and one rig
// construction per host are in the measured region. A round is a rollout
// over 16 hosts in waves of 4 at the fast-scale firmware window, about
// 2.2 s on one worker; every round repeats the same rollout, so its digest
// must not change from round to round. Set-up is one canary host.
//
// The measured rounds run on one worker, like every other workload (see
// runOne): two workers on two shared cores time the neighbours, and each
// wave waits for its slower half. What the worker pool gains is a
// per-layer number, taken in the traced run on min(nproc, 4) workers.
//
// Every host carries one tenant (MaxTenants 1). The default placement
// draws one to three per host from the seed, and since each tenant is
// capped by QoS, the seed would then set the amount of work in a round: a
// round's wall time must compare across seeds.
type fleetRollout struct{}

func (fleetRollout) options(o runOpts) fleet.Options {
	opt := fleet.Options{Hosts: 16, WaveSize: 4, MaxTenants: 1, Seed: o.seed, Parallel: benchProcs}
	if o.quick {
		opt.Hosts, opt.WaveSize = 2, 2
		opt.Warmup, opt.Cooldown = 20*sim.Millisecond, 20*sim.Millisecond
		opt.FWCommitMin, opt.FWCommitMax = 60*sim.Millisecond, 90*sim.Millisecond
	}
	return opt
}

func (f fleetRollout) run(o runOpts, sp *spans) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, phaseUS: make([][]float64, 1)}
	root := sp.begin(span{}, laneMain, "workload")
	defer root.end()
	opt := f.options(o)

	// Set-up: the canary, host 0 replayed alone ahead of the rollout.
	ref := newRefKernel()
	var canary fleet.HostResult
	for i := 0; i < o.setups; i++ {
		before := ref.run()
		t0 := time.Now()
		s := sp.begin(root, laneMain, "setup")
		c := sp.begin(s, laneMain, "fleet.canary")
		canary = fleet.RunHost(opt, 0)
		c.end()
		s.end()
		m.addSetup(time.Since(t0).Seconds(), refScale(before, ref.run()))
	}
	if !canary.Healthy {
		return nil, fmt.Errorf("canary host unhealthy: %s", canary.Reason)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	before := ref.run()
	var first *fleet.Result
	var firstSet *obs.Set
	for round := 0; round < prefixRounds || round < o.rounds && time.Since(t0).Seconds() <= lateFactor*o.seconds; round++ {
		ro := opt
		switch {
		case o.trace:
			ro.Metrics = obs.NewSet(obs.Options{SeriesInterval: obs.DefaultSeriesInterval, Timeline: telemetry})
		case round == 0:
			// fleet.Run hides the per-host environments, so the kernel's
			// event count has to come from a registry: the first round
			// carries a bare one (metrics are passive, the digests below
			// do not move) and costs a little more than the others.
			ro.Metrics = obs.NewSet(obs.Options{})
		}
		ph := sp.begin(root, laneMain, "phase:rollout")
		ts := time.Now()
		res := fleet.Run(ro)
		dt := time.Since(ts).Seconds()
		ph.end()
		us := ratio(dt*1e6, float64(res.Ops))
		after := ref.run()
		m.addRound(dt, []float64{us}, refScale(before, after))
		before = after
		m.sliceUS = append(m.sliceUS, us)
		m.ios += res.Ops
		m.attempted += res.Ops + res.Errs
		m.failed += res.Errs
		m.checkf(res.Passed(), "round %d: rollout aborted in wave %d", round, res.AbortedWave)
		if first == nil {
			first, firstSet = res, ro.Metrics
			m.prefixIOs = res.Ops
			for i := range res.PerHost {
				m.prefixEvents += firstSet.Registry(rigName(i)).Component("sim").Counter("events_fired").Value()
			}
			m.checkf(res.PerHost[0].Digest == canary.Digest, "canary digest %s != host 0 digest %s", canary.Digest, res.PerHost[0].Digest)
		}
		if round == prefixRounds-1 {
			m.liveHeap = liveHeapBytes() - ref.bytes()
		}
		m.checkf(res.FleetDigest == first.FleetDigest, "round %d: fleet digest %s != round 0's %s", round, res.FleetDigest, first.FleetDigest)
	}
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	// Only the first round counted its events; the rounds are identical.
	m.events = uint64(ratio(float64(m.prefixEvents), float64(m.prefixIOs)) * float64(m.ios))

	var procMS []float64
	for _, h := range first.PerHost {
		for _, u := range h.Upgrades {
			procMS = append(procMS, u.EngineProcMS)
		}
		m.fp = append(m.fp, fmt.Sprintf("host %d %s ops=%d errs=%d p50=%v p99=%v", h.Host, h.Digest, h.Ops, h.Errs, h.P50US, h.P99US))
	}
	m.fp = append(m.fp, fmt.Sprintf("fleet %s ops=%d pause=%v", first.FleetDigest, first.Ops, first.PauseMedianMS))
	m.paperErrPct = errPct(median(procMS), paperEngineProcMS)

	if o.trace {
		f.traced(opt, sp, root, m, first, firstSet, median(procMS))
	}
	return m, nil
}

// rigName is the name fleet gives host i's registry in an obs.Set.
func rigName(i int) string { return fmt.Sprintf("host%04d", i) }

// traced adds the fleet's per-layer numbers: the modelled counters summed
// over the first round's hosts, and one serial RunHost per host — the same
// simulations the parallel round ran — whose sum against the round's wall
// is what the worker pool gained.
func (fleetRollout) traced(opt fleet.Options, sp *spans, root span, m *measurement, first *fleet.Result, set *obs.Set, procMS float64) {
	modelledCounters(m, regSnap{}, snapSet(set), first.Ops)
	m.layer["fleet.pause_median_ms"] = first.PauseMedianMS
	m.layer["fleet.engine_proc_ms"] = procMS
	m.layer["fleet.upgrades"] = float64(first.Upgrades)
	m.layer["fio.lat_p50_us"] = first.P50US
	m.layer["fio.lat_p99_us"] = first.P99US

	var hostMS []float64
	var serial float64
	for i := 0; i < opt.Hosts; i++ {
		h := sp.begin(root, laneFleet, "fleet.host")
		hr := fleet.RunHost(opt, i)
		d := h.end().Seconds()
		m.checkf(hr.Digest == first.PerHost[i].Digest, "serial host %d digest differs from the rollout's", i)
		hostMS = append(hostMS, d*1e3)
		serial += d
	}
	m.layer["fleet.host_wall_ms_p50"] = median(hostMS)
	m.layer["fleet.host_wall_ms_max"] = percentile(hostMS, 1)
	// The pool, on as many threads as it has workers. The serial hosts ran
	// without the registry the traced rounds carry, so this round does too.
	opt.Parallel = min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(opt.Parallel))
	p := sp.begin(root, laneMain, "fleet.pool")
	res := fleet.Run(opt)
	speedup := ratio(serial, p.end().Seconds())
	m.checkf(res.FleetDigest == first.FleetDigest, "pool of %d: fleet digest %s != serial %s", opt.Parallel, res.FleetDigest, first.FleetDigest)
	m.layer["fleet.pool_speedup"] = speedup
	m.layer["fleet.pool_efficiency"] = speedup / float64(opt.Parallel)
}
