// Command fiosim runs fio-style workloads on the simulator, against any of
// the four storage schemes the paper compares. It is the quick way to poke
// at a configuration without writing a program.
//
// Usage:
//
//	fiosim -scheme bmstore -rw randread -bs 4096 -iodepth 128 -numjobs 4 \
//	       -runtime 100ms -ssds 1
//
// Schemes: native, vfio, bmstore, bmstore-vm, spdk.
//
// -runs N replays the same workload on N independent rigs seeded seed,
// seed+1, ..., seed+N-1 and reports each run plus an aggregate — the quick
// way to check a result is not a seed artifact. Runs are independent
// simulations, so -parallel M executes up to M of them concurrently;
// stdout (results and digests, in seed order) is byte-identical for any M —
// timing goes to stderr. A run that dies (a fault schedule that takes a drive
// away for good fails tenant I/O, and fio stops at the first error) or wedges
// (the workload has not finished by a virtual-time horizon computed from the
// spec, or the rig deadlocks) is reported on stderr as one line naming the
// run, its seed and the error or the kernel's diagnosis; the other runs still
// report, and the exit status is 1.
//
// The observability and fault flags (-trace, -metrics, -timeline, -faults,
// -chaos, ...) are the shared run-option surface of internal/cli, identical
// across fiosim, bmstore-bench and the fleet simulator.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bmstore"
	"bmstore/internal/cli"
	"bmstore/internal/experiments"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/spdkvhost"
)

func main() {
	scheme := flag.String("scheme", "bmstore", "native | vfio | bmstore | bmstore-vm | spdk")
	rw := flag.String("rw", "randread", "randread | randwrite | read | write | randrw")
	bs := flag.Int("bs", 4096, "block size in bytes")
	iodepth := flag.Int("iodepth", 128, "outstanding I/Os per job")
	numjobs := flag.Int("numjobs", 4, "concurrent jobs")
	runtimeF := flag.Duration("runtime", 100*time.Millisecond, "virtual measurement window")
	ramp := flag.Duration("ramp", 10*time.Millisecond, "virtual warm-up window")
	ssds := flag.Int("ssds", 1, "backend SSDs (namespace striped across them for bmstore)")
	seed := flag.Int64("seed", 42, "simulation seed (first seed with -runs > 1)")
	runs := flag.Int("runs", 1, "independent rigs, seeded seed..seed+runs-1")
	var ropts cli.RunOptions
	ropts.RegisterFlags(flag.CommandLine)
	ropts.RegisterTraceSHA256(flag.CommandLine)
	flag.Parse()

	if err := ropts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ropts.Chaos != "" {
		start := time.Now()
		os.Exit(cli.RunChaos(ropts.Chaos, ropts.Parallel, os.Stdout, os.Stderr,
			func() float64 { return time.Since(start).Seconds() }))
	}

	var pat fio.Pattern
	switch *rw {
	case "randread":
		pat = fio.RandRead
	case "randwrite":
		pat = fio.RandWrite
	case "read":
		pat = fio.SeqRead
	case "write":
		pat = fio.SeqWrite
	case "randrw":
		pat = fio.RandRW
	default:
		fmt.Fprintf(os.Stderr, "unknown rw %q\n", *rw)
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "-runs must be >= 1")
		os.Exit(2)
	}
	spec := fio.Spec{
		Name: *rw, Pattern: pat, BlockSize: *bs,
		IODepth: *iodepth, NumJobs: *numjobs,
		Runtime: sim.Time(runtimeF.Nanoseconds()), Ramp: sim.Time(ramp.Nanoseconds()),
	}

	run, err := ropts.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer run.Close()

	rig := func(i int) string { return fmt.Sprintf("run%04d", i) }
	results := make([]*fio.Result, *runs)
	injected := make([]uint64, *runs)
	errs := make([]error, *runs)
	start := time.Now()
	experiments.NewPool(ropts.Parallel).Each(*runs, func(i int) {
		cfg := bmstore.DefaultConfig()
		cfg.Seed = *seed + int64(i)
		cfg.NumSSDs = *ssds
		results[i], injected[i], errs[i] = runOne(cfg, run.RigOptions(rig(i)), run.DriverConfig(), *scheme, *ssds, spec)
	})
	wall := time.Since(start).Seconds()

	fmt.Printf("%s on %s (%d SSDs): bs=%d iodepth=%d numjobs=%d\n",
		*rw, *scheme, *ssds, *bs, *iodepth, *numjobs)
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "fiosim: run %d (seed %d) failed: %v\n", i, *seed+int64(i), err)
		}
	}
	if *runs == 1 {
		if failed == 0 {
			printResult(results[0])
		}
		if ropts.Faults != "" {
			fmt.Printf("  faults    : %d injected\n", injected[0])
		}
		fmt.Fprintf(os.Stderr, "(simulated %v in %.1fs wall)\n", *runtimeF, wall)
		if tr := run.Tracer(rig(0)); tr != nil {
			fmt.Printf("  trace     : %d events, digest %s\n", tr.Events(), tr.Digest())
		}
	} else {
		var sum, min, max float64
		ok := 0 // runs that completed
		for i, res := range results {
			if res == nil {
				continue // reported on stderr above
			}
			iops := res.IOPS()
			sum += iops
			if ok == 0 || iops < min {
				min = iops
			}
			if ok == 0 || iops > max {
				max = iops
			}
			ok++
			line := fmt.Sprintf("  run %-3d seed %-6d: %8.0f IOPS  %8.1f MB/s  %6.1f us",
				i, *seed+int64(i), iops, res.BandwidthMBs(), res.AvgLatencyUS())
			if tr := run.Tracer(rig(i)); tr != nil {
				line += "  " + tr.Digest()
			}
			fmt.Println(line)
		}
		if ok > 0 {
			mean := sum / float64(ok)
			fmt.Printf("  IOPS mean : %.0f  (min %.0f, max %.0f, spread %.1f%%)\n",
				mean, min, max, (max-min)/mean*100)
		}
		if ropts.Faults != "" {
			var tot uint64
			for _, n := range injected {
				tot += n
			}
			fmt.Printf("  faults    : %d injected across %d runs\n", tot, *runs)
		}
		fmt.Fprintf(os.Stderr, "(%d runs x %v simulated in %.1fs wall, parallel=%d)\n",
			*runs, *runtimeF, wall, ropts.Parallel)
	}
	if run.Traces != nil {
		if err := run.FlushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *runs > 1 {
			fmt.Printf("  trace     : %d events across %d rigs, combined digest %s\n",
				run.Traces.Events(), run.Traces.Rigs(), run.Traces.Digest())
		}
	}
	if ropts.Breakdown {
		fmt.Println()
		if err := run.Metrics.WriteBreakdown(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if ropts.Metrics {
		fmt.Println()
		if err := run.Metrics.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := run.WriteMetricsOut(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if ropts.Timeline {
		fmt.Println()
		if err := run.WriteTimelineSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := run.WriteTimelineOut(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed > 0 {
		run.Close() // os.Exit skips the deferred one
		os.Exit(1)
	}
}

// runHorizon is the virtual time by which a run of spec must be over: the
// window once per attempt the driver may make of an I/O, one I/O's slowest
// episode on top (every attempt sitting out its wait for a slot, then for the
// CQE, then its Abort's waits for an admin slot and a CQE, every back-off
// taken) for the commands still in flight when the window closes, and a
// second for rig bring-up, which takes about a millisecond. A healthy run ends
// a few hundred microseconds after its window; the watchdog behind the
// horizon schedules nothing, so it does not show in any digest.
func runHorizon(spec fio.Spec, dcfg host.DriverConfig) sim.Time {
	attempts := sim.Time(dcfg.MaxRetries + 1)
	episode := attempts*4*dcfg.CmdTimeout + dcfg.RetryBackoff<<uint(dcfg.MaxRetries)
	return (spec.Ramp+spec.Runtime)*attempts + episode + sim.Second
}

// diagnosisError renders a watchdog diagnosis on one line: what stopped the
// run and when, how many processes were left blocked, and the first few.
func diagnosisError(d *sim.Diagnosis) error {
	kind := "deadlocked"
	if d.HorizonHit {
		kind = "still running at its horizon,"
	}
	const show = 4
	names := d.Blocked
	if len(names) > show {
		names = names[:show]
	}
	return fmt.Errorf("workload %s t=%v, %d events pending; %d processes blocked, first %q",
		kind, time.Duration(d.At), d.Pending, len(d.Blocked), names)
}

// runOne builds the scheme's rig on a private environment — observability
// and faults composed through opts — and runs spec under a watchdog
// (runHorizon). The second result is the number of faults the rig's injector
// fired. A run that dies inside the simulation — fio panics on the first I/O
// error, which is what a fault schedule that removes a drive for good ends in
// — comes back as an error carrying the panic's message (it names the process
// and the status), and one that wedges as an error carrying the watchdog's
// diagnosis, each with whatever the injector had counted until then.
func runOne(cfg bmstore.Config, opts []bmstore.Option, dcfg host.DriverConfig, scheme string, ssds int, spec fio.Spec) (res *fio.Result, injected uint64, err error) {
	var tbEnv *sim.Env
	var diag *sim.Diagnosis
	horizon := runHorizon(spec, dcfg)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%v", r)
		}
		if tbEnv == nil {
			return // the rig was never built
		}
		if err != nil {
			tbEnv.Shutdown() // the panic skipped Testbed.Run's own
		}
		if flt := tbEnv.Faults(); flt != nil {
			injected = flt.Injected()
		}
	}()
	switch scheme {
	case "native", "vfio", "spdk":
		if scheme == "spdk" {
			cfg.Kernel = spdkvhost.PolledKernel()
		}
		tb, err := bmstore.NewDirectTestbed(cfg, opts...)
		if err != nil {
			panic(err)
		}
		tbEnv = tb.Env
		diag = tb.RunWatched(func(p *sim.Proc) {
			if scheme == "vfio" {
				vm := host.KVMGuest()
				dcfg.VM = &vm
			}
			drv, err := tb.AttachNative(p, 0, dcfg)
			if err != nil {
				panic(err)
			}
			var devs []host.BlockDevice
			if scheme == "spdk" {
				tgt := spdkvhost.NewTarget(tb.Env, spdkvhost.DefaultConfig(), 1)
				vdev := tgt.NewDevice(drv.BlockDev(0), host.CentOS("3.10.0"))
				for i := 0; i < spec.NumJobs; i++ {
					devs = append(devs, vdev)
				}
			} else {
				for i := 0; i < spec.NumJobs; i++ {
					devs = append(devs, drv.BlockDev(i))
				}
			}
			res = fio.Run(p, devs, spec)
		}, horizon)
	case "bmstore", "bmstore-vm":
		tb, err := bmstore.NewBMStoreTestbed(cfg, opts...)
		if err != nil {
			panic(err)
		}
		tbEnv = tb.Env
		diag = tb.RunWatched(func(p *sim.Proc) {
			var stripe []int
			for i := 0; i < ssds; i++ {
				stripe = append(stripe, i)
			}
			if err := tb.Console.CreateNamespace(p, "vol0", 1536<<30, stripe); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, "vol0", 0); err != nil {
				panic(err)
			}
			if scheme == "bmstore-vm" {
				vm := host.KVMGuest()
				dcfg.VM = &vm
			}
			drv, err := tb.AttachTenant(p, 0, dcfg)
			if err != nil {
				panic(err)
			}
			var devs []host.BlockDevice
			for i := 0; i < spec.NumJobs; i++ {
				devs = append(devs, drv.BlockDev(i))
			}
			res = fio.Run(p, devs, spec)
		}, horizon)
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", scheme)
		os.Exit(2)
	}
	if diag != nil {
		return nil, 0, diagnosisError(diag)
	}
	return res, 0, nil
}

func printResult(res *fio.Result) {
	fmt.Printf("  IOPS      : %.0f\n", res.IOPS())
	fmt.Printf("  bandwidth : %.1f MB/s\n", res.BandwidthMBs())
	fmt.Printf("  avg lat   : %.1f us\n", res.AvgLatencyUS())
	for _, q := range []struct {
		n string
		v float64
	}{{"p50", 0.50}, {"p99", 0.99}, {"p99.9", 0.999}} {
		h := res.Read.Lat
		h.Merge(&res.Write.Lat)
		fmt.Printf("  %-9s : %.1f us\n", q.n, float64(h.Percentile(q.v))/1e3)
	}
}
