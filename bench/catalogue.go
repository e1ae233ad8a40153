package main

// The catalogue names every workload and metric the benchmark emits. It is
// the long form of BENCHMARK.json, whose schema is fixed by the driver and
// has no room for domains, layers or predictions: `-describe` prints it,
// the README tables are written from it, and bench_test.go checks that
// BENCHMARK.json lists exactly these names, units and bounds.

// Time domains. A host number is what the simulator costs and is noisy; a
// sim number is what the modelled hardware does and repeats exactly for a
// seed.
const (
	domHost = "host"
	domSim  = "sim"
)

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// RoundS is the host time of one round on the box the benchmark was
	// written on; --seconds / RoundS is how many rounds a run measures.
	RoundS float64 `json:"round_s"`
	// RunS is the expected wall time of one run at the default --seconds on
	// that box: set-up repeats plus the measured region.
	RunS float64 `json:"expected_run_s"`
}

func lookupInfo(name string) workloadInfo {
	for _, w := range workloadCatalogue {
		if w.Name == name {
			return w
		}
	}
	panic("no workload " + name)
}

var workloadCatalogue = []workloadInfo{
	{"rand4k", "4 KiB random I/O at a deep event queue on a bare rig: per-command work in sim, host, engine, ssd and pcie is nearly all the cost", 0.41, 16.5},
	{"rand4k-telemetry", "same traffic as rand4k with sampled timelines on: obs does the extra work, so observer cost shows here and nowhere else", 0.47, 16.5},
	{"seq128k", "128 KiB sequential I/O over 4 SSDs: PRP lists, large DMAs and die striping amortise the per-command constants", 0.75, 19},
	{"apps-mixed", "kvstore+YCSB and minidb+sysbench in 4 guests with real payload bytes: app CPU, hostmem copies and process switches dominate", 0.55, 19},
	{"fleet-rollout", "rolling hot-upgrade over traced hosts: the classic process-per-command path, control plane and one rig construction per host", 2.2, 16.5},
}

type metricInfo struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Layer  string   `json:"layer,omitempty"`
	Domain string   `json:"domain"`
	Better string   `json:"direction"`
	Bound  float64  `json:"bound,omitempty"`
	Moves  []string `json:"moves,omitempty"`   // metric@workload it should move
	FlatOn []string `json:"flat_on,omitempty"` // workloads where the prediction is no change
	Def    string   `json:"definition"`
}

// endToEnd is reported by the untraced run of every workload. Host times
// are medians inside a run, in reference seconds (see ref.go); sim metrics
// are computed over the first prefixRounds rounds only, so they do not
// depend on --seconds.
var endToEnd = []metricInfo{
	{Name: "setup_s", Unit: "s", Domain: domHost, Better: "lower", Bound: 0.25,
		Def: "median over the run's set-ups of start → first measured I/O, in reference seconds: rig build, namespace create+bind, driver attach, warm-up (fio), DB open+load+warm round (apps-mixed), canary host (fleet-rollout)"},
	{Name: "wall_s", Unit: "s", Domain: domHost, Better: "lower", Bound: 0.25,
		Def: "median host wall time of one round (every phase once, a fixed amount of simulated work), in reference seconds: the time measured / the mean of the reference kernel's readings of the machine's slowness before and after the round"},
	{Name: "host_us_per_io", Unit: "us", Domain: domHost, Better: "lower", Bound: 0.25,
		Def: "per phase and round, the host time of the sim-time slices inside the phase / the I/Os they completed (Driver.Counters deltas), in reference time like wall_s; the median over rounds, then the mean over phases (fleet-rollout: median over rounds of round wall / Result.Ops)"},
	{Name: "live_heap_mib", Unit: "MiB", Domain: domHost, Better: "lower", Bound: 0.10,
		Def: "heap in use after a forced collection at the end of the prefix rounds: what the simulator retains at a fixed point of simulated work"},
	{Name: "allocs_per_io", Unit: "count", Domain: domHost, Better: "lower", Bound: 0.15,
		Def: "MemStats.Mallocs delta over the measured region / I/Os completed in it"},
	{Name: "events_per_io", Unit: "count", Domain: domSim, Better: "lower", Bound: 0.08,
		Def: "Env.Events delta / I/Os over the prefix rounds (fleet-rollout: sim.events_fired summed over the first round's hosts / Result.Ops); exact for a seed"},
	{Name: "paper_match_pct", Unit: "%", Domain: domSim, Better: "higher", Bound: 0.05,
		Def: "100 − |ours − paper| / paper on the workload's anchor (rand4k*: randr128 kIOPS vs 651 and randw16 latency vs 179.9 us; seq128k: seqr256 GB/s vs 12.6; apps-mixed: per-VM spread vs 0; fleet-rollout: engine processing ms vs 100); exact for a seed"},
}

// perLayer is reported by the traced run. Host-time probes are bench-side
// timers around public calls; modelled counters are read from the repo's
// own obs registry over the prefix rounds and repeat exactly for a seed. A
// metric that has no meaning on a workload reads 0 there.
var perLayer = []metricInfo{
	// sim kernel
	{Name: "sim.host_ns_per_event", Unit: "ns", Layer: "sim", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "measured-region wall / kernel events fired in it"},
	{Name: "sim.sched_ns_per_event_shallow", Unit: "ns", Layer: "sim", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"}, FlatOn: []string{"apps-mixed"},
		Def: "Env.Schedule+Run with 64 events pending"},
	{Name: "sim.sched_ns_per_event_deep", Unit: "ns", Layer: "sim", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k", "host_us_per_io@seq128k"}, FlatOn: []string{"apps-mixed"},
		Def: "Env.Schedule+Run with 4096 events pending"},
	{Name: "sim.proc_sleep_ns", Unit: "ns", Layer: "sim", Domain: domHost, Better: "lower", Moves: []string{"wall_s@fleet-rollout", "wall_s@apps-mixed"},
		Def: "Proc.Sleep round trip (goroutine hand-off)"},
	{Name: "sim.slice_us_per_io_p95", Unit: "us", Layer: "sim", Domain: domHost, Better: "lower",
		Def: "p95 of the per-slice host us per I/O (GC and scheduler hiccups)"},
	{Name: "sim.proc_resumes_per_io", Unit: "count", Layer: "sim", Domain: domSim, Better: "lower", Moves: []string{"wall_s@fleet-rollout"},
		Def: "sim.proc_resumes / I/Os"},
	{Name: "sim.procs_spawned", Unit: "count", Layer: "sim", Domain: domSim, Better: "lower",
		Def: "sim.procs_spawned over the prefix rounds"},
	// hostmem
	{Name: "hostmem.write4k_ns", Unit: "ns", Layer: "hostmem", Domain: domHost, Better: "lower", Moves: []string{"wall_s@apps-mixed"}, FlatOn: []string{"rand4k"},
		Def: "Memory.Write of 4 KiB onto touched pages"},
	{Name: "hostmem.read4k_ns", Unit: "ns", Layer: "hostmem", Domain: domHost, Better: "lower", Moves: []string{"wall_s@apps-mixed"}, FlatOn: []string{"rand4k"},
		Def: "Memory.Read of 4 KiB from touched pages"},
	{Name: "hostmem.touched_pages", Unit: "count", Layer: "hostmem", Domain: domSim, Better: "lower",
		Def: "Memory.TouchedPages at the end of the prefix rounds"},
	// nvme
	{Name: "nvme.prp_build_128k_ns", Unit: "ns", Layer: "nvme", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@seq128k"}, FlatOn: []string{"rand4k"},
		Def: "BuildPRPs for a 128 KiB buffer"},
	{Name: "nvme.prp_walk_128k_ns", Unit: "ns", Layer: "nvme", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@seq128k"}, FlatOn: []string{"rand4k"},
		Def: "WalkPRPsInto over a 32-entry PRP list"},
	{Name: "nvme.prp_walk_4k_ns", Unit: "ns", Layer: "nvme", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "WalkPRPsInto for one page"},
	{Name: "nvme.sqe_codec_ns", Unit: "ns", Layer: "nvme", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "Command.Encode + DecodeCommand"},
	{Name: "nvme.cqe_codec_ns", Unit: "ns", Layer: "nvme", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "Completion.Encode + DecodeCompletion"},
	// pcie
	{Name: "pcie.mmio_ns", Unit: "ns", Layer: "pcie", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"}, FlatOn: []string{"apps-mixed"},
		Def: "Port.MMIOWrite through Link to a no-op device, delivery event included"},
	{Name: "pcie.dma_4k_ns", Unit: "ns", Layer: "pcie", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"}, FlatOn: []string{"apps-mixed"},
		Def: "Port.DMAWrite of 4 KiB through Link and Root, nil buffer"},
	{Name: "pcie.dma_128k_ns", Unit: "ns", Layer: "pcie", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@seq128k"}, FlatOn: []string{"apps-mixed"},
		Def: "Port.DMARead of 128 KiB through Link and Root, nil buffer"},
	{Name: "pcie.link_bytes_per_io", Unit: "B", Layer: "pcie", Domain: domSim, Better: "lower",
		Def: "wire bytes booked on all links / I/Os"},
	// host driver
	{Name: "host.native_us_per_io_4k", Unit: "us", Layer: "host", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "randr128 on NewDirectTestbed+AttachNative (host+pcie+ssd, no engine)"},
	{Name: "host.native_us_per_io_128k", Unit: "us", Layer: "host", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@seq128k"},
		Def: "seqr256 on NewDirectTestbed+AttachNative"},
	{Name: "host.attach_ms", Unit: "ms", Layer: "host", Domain: domHost, Better: "lower", Moves: []string{"setup_s@fleet-rollout"},
		Def: "median span around AttachTenant"},
	{Name: "host.doorbells_per_io", Unit: "count", Layer: "host", Domain: domSim, Better: "lower", Moves: []string{"events_per_io@rand4k"},
		Def: "driver doorbells / I/Os"},
	{Name: "host.cqes_per_io", Unit: "count", Layer: "host", Domain: domSim, Better: "lower",
		Def: "driver CQEs reaped / I/Os"},
	{Name: "host.block_splits_per_io", Unit: "count", Layer: "host", Domain: domSim, Better: "lower",
		Def: "kernel request splits / I/Os"},
	{Name: "host.retries", Unit: "count", Layer: "host", Domain: domSim, Better: "lower", Def: "driver re-submissions"},
	{Name: "host.timeouts", Unit: "count", Layer: "host", Domain: domSim, Better: "lower", Def: "driver command timeouts"},
	{Name: "host.sim_submit_us", Unit: "us", Layer: "host", Domain: domSim, Better: "lower", Def: "mean span stage start → doorbell"},
	{Name: "host.sim_reap_us", Unit: "us", Layer: "host", Domain: domSim, Better: "lower", Def: "mean span stage CQE → return"},
	// engine
	{Name: "engine.mapping_lookup_ns", Unit: "ns", Layer: "engine", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"},
		Def: "MappingTable.LookupRangeInto for 8 blocks"},
	{Name: "engine.added_us_per_io_4k", Unit: "us", Layer: "engine", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k"}, FlatOn: []string{"apps-mixed"},
		Def: "BM-Store − native host us per I/O on randr128"},
	{Name: "engine.added_us_per_io_128k", Unit: "us", Layer: "engine", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@seq128k"}, FlatOn: []string{"apps-mixed"},
		Def: "BM-Store − native host us per I/O on seqr256"},
	{Name: "engine.added_events_per_io_4k", Unit: "count", Layer: "engine", Domain: domSim, Better: "lower", Moves: []string{"events_per_io@rand4k"},
		Def: "BM-Store − native events per I/O on randr128"},
	{Name: "engine.added_events_per_io_128k", Unit: "count", Layer: "engine", Domain: domSim, Better: "lower", Moves: []string{"events_per_io@seq128k"},
		Def: "BM-Store − native events per I/O on seqr256"},
	{Name: "engine.classic_path_ratio", Unit: "ratio", Layer: "engine", Domain: domHost, Better: "lower", Moves: []string{"wall_s@fleet-rollout"}, FlatOn: []string{"rand4k"},
		Def: "WithClassicPath / fused host us per I/O on randr128"},
	{Name: "engine.sim_frontend_us", Unit: "us", Layer: "engine", Domain: domSim, Better: "lower", Def: "mean span stage doorbell → dispatch"},
	{Name: "engine.sim_map_qos_us", Unit: "us", Layer: "engine", Domain: domSim, Better: "lower", Def: "mean span stage dispatch → mapped"},
	{Name: "engine.sim_complete_us", Unit: "us", Layer: "engine", Domain: domSim, Better: "lower", Def: "mean span stage backend done → CQE reap"},
	{Name: "engine.qos_parked", Unit: "count", Layer: "engine", Domain: domSim, Better: "lower", Def: "commands parked by namespace QoS"},
	{Name: "engine.backend_inflight_peak", Unit: "count", Layer: "engine", Domain: domSim, Better: "lower", Def: "peak commands in flight on one backend"},
	// ssd
	{Name: "ssd.sim_nand_us", Unit: "us", Layer: "ssd", Domain: domSim, Better: "lower", Def: "mean media time per I/O"},
	{Name: "ssd.sim_die_wait_us", Unit: "us", Layer: "ssd", Domain: domSim, Better: "lower", Def: "mean die wait of the sampled timelines"},
	{Name: "ssd.media_ops", Unit: "count", Layer: "ssd", Domain: domSim, Better: "lower", Def: "SSD read+write operations"},
	// observers
	{Name: "trace.digest_overhead_ratio", Unit: "ratio", Layer: "trace", Domain: domHost, Better: "lower", Moves: []string{"wall_s@fleet-rollout"}, FlatOn: []string{"rand4k"},
		Def: "WithTrace / bare host us per I/O on randr128"},
	{Name: "obs.metrics_overhead_pct", Unit: "%", Layer: "obs", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k-telemetry"}, FlatOn: []string{"rand4k"},
		Def: "WithMetrics vs bare host us per I/O on randr128"},
	{Name: "obs.timeline_overhead_pct", Unit: "%", Layer: "obs", Domain: domHost, Better: "lower", Moves: []string{"host_us_per_io@rand4k-telemetry"}, FlatOn: []string{"rand4k"},
		Def: "WithTimeline{64,16} vs bare host us per I/O on randr128"},
	{Name: "obs.export_ms", Unit: "ms", Layer: "obs", Domain: domHost, Better: "lower", Moves: []string{"wall_s@rand4k-telemetry"},
		Def: "Snapshot+WriteJSON+timeline WriteTrace after the run (outside the measured region)"},
	// set-up path
	{Name: "bmstore.build_ms", Unit: "ms", Layer: "bmstore", Domain: domHost, Better: "lower", Moves: []string{"setup_s@fleet-rollout"},
		Def: "median span around NewBMStoreTestbed"},
	{Name: "controller.provision_ms", Unit: "ms", Layer: "controller", Domain: domHost, Better: "lower", Moves: []string{"setup_s@fleet-rollout"},
		Def: "median span around CreateNamespace+Bind"},
	{Name: "controller.mi_cmds", Unit: "count", Layer: "controller", Domain: domSim, Better: "lower", Def: "NVMe-MI commands served since rig build"},
	// fio (modelled results)
	{Name: "fio.randr128_kiops", Unit: "kIOPS", Layer: "fio", Domain: domSim, Better: "higher", Def: "rand-r-128 throughput"},
	{Name: "fio.randw16_lat_us", Unit: "us", Layer: "fio", Domain: domSim, Better: "lower", Def: "rand-w-16 mean latency"},
	{Name: "fio.seqr256_gbps", Unit: "GB/s", Layer: "fio", Domain: domSim, Better: "higher", Def: "seq-r-256 bandwidth"},
	{Name: "fio.seqw256_gbps", Unit: "GB/s", Layer: "fio", Domain: domSim, Better: "higher", Def: "seq-w-256 bandwidth"},
	{Name: "fio.lat_p50_us", Unit: "us", Layer: "fio", Domain: domSim, Better: "lower", Def: "median completion latency, all phases"},
	{Name: "fio.lat_p99_us", Unit: "us", Layer: "fio", Domain: domSim, Better: "lower", Def: "p99 completion latency, all phases"},
	// apps
	{Name: "apps.load_s", Unit: "s", Layer: "apps", Domain: domHost, Better: "lower", Moves: []string{"setup_s@apps-mixed"},
		Def: "median span around Open+Load of the four databases"},
	{Name: "apps.host_us_per_txn", Unit: "us", Layer: "apps", Domain: domHost, Better: "lower", Moves: []string{"wall_s@apps-mixed"},
		Def: "measured-region wall / (YCSB ops + sysbench transactions)"},
	{Name: "apps.ycsb_ops_per_s", Unit: "1/s", Layer: "apps", Domain: domSim, Better: "higher", Def: "mean YCSB-A throughput per VM"},
	{Name: "apps.mysql_lat_ms", Unit: "ms", Layer: "apps", Domain: domSim, Better: "lower", Def: "mean sysbench transaction latency per VM"},
	// fleet
	{Name: "fleet.host_wall_ms_p50", Unit: "ms", Layer: "fleet", Domain: domHost, Better: "lower", Moves: []string{"wall_s@fleet-rollout"},
		Def: "median wall of one serial RunHost"},
	{Name: "fleet.host_wall_ms_max", Unit: "ms", Layer: "fleet", Domain: domHost, Better: "lower", Moves: []string{"wall_s@fleet-rollout"},
		Def: "slowest serial RunHost: sets a wave's time on a pool"},
	{Name: "fleet.pool_speedup", Unit: "ratio", Layer: "fleet", Domain: domHost, Better: "higher",
		Def: "sum of serial host walls / wall of one rollout on min(nproc, 4) workers and as many threads; the measured rounds run on one"},
	{Name: "fleet.pool_efficiency", Unit: "ratio", Layer: "fleet", Domain: domHost, Better: "higher",
		Def: "pool_speedup / workers"},
	{Name: "fleet.pause_median_ms", Unit: "ms", Layer: "fleet", Domain: domSim, Better: "lower", Def: "median tenant-visible I/O pause"},
	{Name: "fleet.engine_proc_ms", Unit: "ms", Layer: "fleet", Domain: domSim, Better: "lower", Def: "median engine processing time per upgrade"},
	{Name: "fleet.upgrades", Unit: "count", Layer: "fleet", Domain: domSim, Better: "higher", Def: "completed SSD hot-upgrades per round"},
}
