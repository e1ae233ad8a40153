package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// fioPatterns maps -rw to the fio access pattern.
var fioPatterns = map[string]fio.Pattern{
	"randread": fio.RandRead, "randwrite": fio.RandWrite,
	"read": fio.SeqRead, "write": fio.SeqWrite, "randrw": fio.RandRW,
}

// fioVerb is `bmsctl fio`, described in the package comment.
func fioVerb(fs *flag.FlagSet) func([]string) int {
	scheme := fs.String("scheme", "bmstore", strings.Join(experiments.SchemeNames(), " | "))
	rw := fs.String("rw", "randread", "randread | randwrite | read | write | randrw")
	bs := fs.Int("bs", 4096, "block size in bytes (a multiple of 4096)")
	iodepth := fs.Int("iodepth", 128, "outstanding I/Os per job")
	numjobs := fs.Int("numjobs", 4, "concurrent jobs")
	runtimeF := fs.Duration("runtime", 100*time.Millisecond, "virtual measurement window")
	ramp := fs.Duration("ramp", 10*time.Millisecond, "virtual warm-up window")
	ssds := fs.Int("ssds", 1, "backend SSDs the namespace stripes across (bmstore and bmstore-vm; the other schemes run on one)")
	seed := fs.Int64("seed", 42, "simulation seed (first seed with -runs > 1)")
	runs := fs.Int("runs", 1, "independent rigs, seeded seed..seed+runs-1")
	var ropts runOptions
	ropts.register(fs)
	fs.BoolVar(&ropts.traceSHA256, "trace-sha256", false, "use SHA-256 for the digest instead of the fast 64-bit digest")

	return func(args []string) int {
		pat, known := fioPatterns[*rw]
		sch := experiments.SchemeNamed(*scheme)
		switch {
		case len(args) > 0:
			return fail(fs, 2, fmt.Errorf("unexpected argument %q", args[0]))
		case !known:
			return fail(fs, 2, fmt.Errorf("unknown -rw %q", *rw))
		case sch == nil:
			return fail(fs, 2, fmt.Errorf("unknown -scheme %q", *scheme))
		case *ssds > 1 && !sch.Stripes():
			return fail(fs, 2, fmt.Errorf("-ssds %d: -scheme %s runs on one SSD; only bmstore and bmstore-vm stripe", *ssds, *scheme))
		case *bs < 1 || *bs%nvme.LBASize != 0:
			return fail(fs, 2, fmt.Errorf("-bs %d is not a positive multiple of the %d-byte block", *bs, nvme.LBASize))
		case *runtimeF <= 0:
			return fail(fs, 2, fmt.Errorf("-runtime must be > 0, got %v", *runtimeF))
		case *ramp < 0:
			return fail(fs, 2, fmt.Errorf("-ramp must be >= 0, got %v", *ramp))
		}
		if err := cmp.Or(atLeastOne("iodepth", *iodepth), atLeastOne("numjobs", *numjobs),
			atLeastOne("ssds", *ssds), atLeastOne("runs", *runs), ropts.validate()); err != nil {
			return fail(fs, 2, err)
		}
		spec := fio.Spec{
			Name: *rw, Pattern: pat, BlockSize: *bs,
			IODepth: *iodepth, NumJobs: *numjobs,
			Runtime: sim.Time(runtimeF.Nanoseconds()), Ramp: sim.Time(ramp.Nanoseconds()),
		}
		run, err := ropts.build()
		if err != nil {
			return fail(fs, 1, err)
		}
		defer run.close()

		rig := func(i int) string { return fmt.Sprintf("run%04d", i) }
		results := make([]*fio.Result, *runs)
		injected := make([]uint64, *runs)
		errs := make([]error, *runs)
		h := run.harness(experiments.Scale{})
		start := time.Now()
		experiments.NewPool(ropts.parallel).Each(*runs, func(i int) {
			cfg := bmstore.DefaultConfig()
			cfg.Seed = *seed + int64(i)
			cfg.NumSSDs = *ssds
			results[i], injected[i], errs[i] = runOne(cfg, h.Options(rig(i)), run.driverConfig(), sch, spec)
		})
		wall := time.Since(start).Seconds()

		fmt.Printf("%s on %s (%d SSDs): bs=%d iodepth=%d numjobs=%d\n",
			*rw, *scheme, *ssds, *bs, *iodepth, *numjobs)
		failed := 0
		for i, err := range errs {
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "%s: run %d (seed %d) failed: %v\n", fs.Name(), i, *seed+int64(i), err)
			}
		}
		if *runs == 1 {
			if failed == 0 {
				printResult(results[0])
			}
			if ropts.faults != "" {
				fmt.Printf("  faults    : %d injected\n", injected[0])
			}
			fmt.Fprintf(os.Stderr, "(simulated %v in %.1fs wall)\n", *runtimeF, wall)
			if run.traces != nil {
				tr := run.traces.Tracer(rig(0))
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
				if run.traces != nil {
					line += "  " + run.traces.Tracer(rig(i)).Digest()
				}
				fmt.Println(line)
			}
			if ok > 0 {
				mean := sum / float64(ok)
				fmt.Printf("  IOPS mean : %.0f  (min %.0f, max %.0f, spread %.1f%%)\n",
					mean, min, max, (max-min)/mean*100)
			}
			if ropts.faults != "" {
				var tot uint64
				for _, n := range injected {
					tot += n
				}
				fmt.Printf("  faults    : %d injected across %d runs\n", tot, *runs)
			}
			fmt.Fprintf(os.Stderr, "(%d runs x %v simulated in %.1fs wall, parallel=%d)\n",
				*runs, *runtimeF, wall, ropts.parallel)
			if run.traces != nil {
				fmt.Printf("  trace     : %d events across %d rigs, combined digest %s\n",
					run.traces.Events(), run.traces.Rigs(), run.traces.Digest())
			}
		}
		if err := run.finish("\n", os.Stdout); err != nil {
			return fail(fs, 1, err)
		}
		return status(failed == 0)
	}
}

// atLeastOne is the usage error for a count flag below 1, nil otherwise.
func atLeastOne(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be >= 1, got %d", name, v)
	}
	return nil
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

// runOne builds the rig of scheme s on a private environment — observability
// and faults composed through opts — with its disk striped over all
// cfg.NumSSDs drives, and runs spec under a watchdog (runHorizon). The second
// result is the number of faults the rig's injector fired. A run that dies
// inside the simulation — fio panics on the first I/O error, which is what a
// fault schedule that removes a drive for good ends in — comes back as an
// error carrying the panic's message (it names the process and the status),
// and one that wedges as an error carrying the watchdog's diagnosis, each
// with whatever the injector had counted until then.
func runOne(cfg bmstore.Config, opts []bmstore.Option, dcfg host.DriverConfig, s *experiments.Scheme, spec fio.Spec) (res *fio.Result, injected uint64, err error) {
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
	tb, err := s.Testbed(cfg, opts...)
	if err != nil {
		return nil, 0, err
	}
	tbEnv = tb.Env
	disk := experiments.Disk{Name: "vol0", Bytes: 1536 << 30}
	for i := range cfg.NumSSDs {
		disk.SSDs = append(disk.SSDs, i)
	}
	diag = tb.RunWatched(func(p *sim.Proc) {
		err := s.Attach(p, tb, []experiments.Disk{disk}, dcfg, spec.NumJobs, func(_ int, _ *host.Driver, devs []host.BlockDevice) {
			res = fio.Run(p, devs, spec)
		})
		if err != nil {
			panic(err)
		}
	}, horizon)
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
