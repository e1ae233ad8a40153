package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"bmstore/internal/crash"
	"bmstore/internal/experiments"
	"bmstore/internal/fidelity"
	"bmstore/internal/fleet"
)

// parseScale resolves a -scale name.
func parseScale(name string) (experiments.Scale, error) {
	switch name {
	case "fast":
		return experiments.Fast(), nil
	case "full":
		return experiments.Full(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
}

// sweepVerb is `bmsctl sweep`, described in the package comment.
func sweepVerb(fs *flag.FlagSet) func([]string) int {
	scale := fs.String("scale", "fast", "run scale: fast or full")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.String("json", "", "write structured Result records as deterministic JSON to this file (- for stdout)")
	checkDir := fs.String("check", "", "compare results against the goldens in this directory and exit nonzero on drift or shape violation")
	writeGoldens := fs.String("write-goldens", "", "bless the current results as goldens in this directory (refused if they violate the paper shape)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	var ropts runOptions
	ropts.register(fs)

	return func(args []string) (code int) {
		if len(args) > 0 {
			return fail(fs, 2, fmt.Errorf("unexpected argument %q", args[0]))
		}
		if err := ropts.validate(); err != nil {
			return fail(fs, 2, err)
		}
		sc, err := parseScale(*scale)
		if err != nil {
			return fail(fs, 2, err)
		}
		if *list {
			for _, e := range experiments.All() {
				fmt.Printf("%-8s %s\n", e.ID, e.Name)
			}
			return 0
		}
		// An unknown -only id is an error, not a silent no-op sweep.
		sel, err := experiments.Select(*only)
		if err != nil {
			return fail(fs, 2, err)
		}
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				return fail(fs, 1, err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return fail(fs, 1, err)
			}
			defer pprof.StopCPUProfile()
		}
		run, err := ropts.build()
		if err != nil {
			return fail(fs, 1, err)
		}
		defer run.close()
		if *memprofile != "" {
			defer func() {
				runtime.GC()
				if err := writeTo(*memprofile, pprof.WriteHeapProfile); err != nil {
					code = fail(fs, 1, err)
				}
			}()
		}
		h := experiments.NewHarness(sc, ropts.parallel, run.traces).
			WithMetrics(run.metrics).
			WithFaults(ropts.rules)

		fmt.Printf("BM-Store evaluation reproduction (scale=%s)\n\n", sc.Name)
		sweepStart := time.Now()
		var results []experiments.Result
		for _, e := range sel {
			start := time.Now()
			tab := e.Run(h)
			fmt.Fprintf(os.Stderr, "%-8s %5.1fs wall\n", e.ID, time.Since(start).Seconds())
			tab.Render(os.Stdout)
			results = append(results, tab.Result())
		}
		fmt.Fprintf(os.Stderr, "sweep    %5.1fs wall (parallel=%d)\n", time.Since(sweepStart).Seconds(), h.Parallelism())
		if run.traces != nil {
			fmt.Printf("trace: %d rigs, %d events, digest %s\n",
				run.traces.Rigs(), run.traces.Events(), run.traces.Digest())
		}
		if err := run.finish("", os.Stderr); err != nil {
			return fail(fs, 1, err)
		}
		if *jsonOut != "" {
			set := &experiments.ResultSet{Scale: sc.Name, Results: results}
			if err := writeTo(*jsonOut, set.WriteJSON); err != nil {
				return fail(fs, 1, err)
			}
		}
		if *writeGoldens != "" {
			if err := fidelity.WriteGoldens(*writeGoldens, sc.Name, results); err != nil {
				return fail(fs, 1, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d goldens to %s\n", len(results), *writeGoldens)
		}
		if *checkDir == "" {
			return 0
		}
		goldenScale, goldens, err := fidelity.LoadGoldens(*checkDir)
		if err != nil {
			return fail(fs, 1, err)
		}
		if goldenScale != sc.Name {
			return fail(fs, 1, fmt.Errorf("goldens in %s are %q scale; this run is %q — refusing to compare",
				*checkDir, goldenScale, sc.Name))
		}
		if *only != "" {
			// A partial run is checked against the matching goldens only.
			// Keyed by artifact id (e.g. "fig8+table5"), not experiment id
			// ("fig8") — the two differ for the combined tables.
			ids := make(map[string]bool, len(results))
			for _, r := range results {
				ids[r.ID] = true
			}
			goldens = fidelity.FilterByID(goldens, ids)
		}
		rep := fidelity.Check(goldens, results)
		// The report goes to stderr: stdout must stay byte-identical to the
		// committed bench_tables.txt whether or not -check is on.
		if err := rep.Write(os.Stderr); err != nil {
			return fail(fs, 1, err)
		}
		return status(rep.OK())
	}
}

// fleetRunVerb is `bmsctl fleet-run`, described in the package comment.
// The scale picks the firmware commit window, the device property that
// dominates the hot-upgrade pause.
func fleetRunVerb(fs *flag.FlagSet) func([]string) int {
	hosts := fs.Int("hosts", 64, "hosts in the fleet")
	wave := fs.Int("wave", 4, "hosts hot-upgraded per rolling wave")
	seed := fs.Int64("seed", 1, "fleet seed; host i simulates with seed+i")
	replayHost := fs.Int("host", -1, "replay this single host of the fleet instead of the whole rollout")
	ssds := fs.Int("ssds", 1, "backend SSDs per host, each hot-upgraded in turn")
	jsonOut := fs.String("json", "", "write the fleet result as JSON to this file for offline inspection with 'bmsctl fleet' (- for stdout)")
	scale := fs.String("scale", "fast", "run scale: fast or full (picks the firmware commit window)")
	var ropts runOptions
	ropts.register(fs)

	return func(args []string) int {
		if len(args) > 0 {
			return fail(fs, 2, fmt.Errorf("unexpected argument %q", args[0]))
		}
		sc, err := parseScale(*scale)
		err = cmp.Or(err, atLeastOne("hosts", *hosts), atLeastOne("wave", *wave),
			atLeastOne("ssds", *ssds), ropts.validate())
		if err == nil && (*replayHost < -1 || *replayHost >= *hosts) {
			err = fmt.Errorf("-host %d out of range: the fleet has hosts 0..%d (-1 runs them all)", *replayHost, *hosts-1)
		}
		if err != nil {
			return fail(fs, 2, err)
		}
		run, err := ropts.build()
		if err != nil {
			return fail(fs, 1, err)
		}
		defer run.close()

		o := fleet.Options{
			Hosts:       *hosts,
			WaveSize:    *wave,
			Seed:        *seed,
			SSDsPerHost: *ssds,
			Parallel:    ropts.parallel,
			FWCommitMin: sc.FWCommitMin,
			FWCommitMax: sc.FWCommitMax,
			Faults:      ropts.rules,
			Traces:      run.traces,
			Metrics:     run.metrics,
		}
		start := time.Now()
		var passed bool
		if *replayHost >= 0 {
			hr := fleet.RunHost(o, *replayHost)
			fmt.Fprintf(os.Stderr, "(host replay in %.1fs wall)\n", time.Since(start).Seconds())
			passed = hr.Healthy
			err = hr.WriteReport(os.Stdout)
		} else {
			r := fleet.Run(o)
			fmt.Fprintf(os.Stderr, "(fleet of %d in %.1fs wall, parallel=%d)\n",
				*hosts, time.Since(start).Seconds(), ropts.parallel)
			passed = r.Passed()
			if err = r.WriteReport(os.Stdout); err == nil && *jsonOut != "" {
				err = writeTo(*jsonOut, r.WriteJSON)
			}
		}
		// The report itself already carries the digests.
		if err == nil {
			err = run.finish("", os.Stderr)
		}
		if err != nil {
			return fail(fs, 1, err)
		}
		return status(passed)
	}
}

// crashSweepVerb is `bmsctl crash-sweep`, described in the package comment.
// A sweep that cannot run (probe failure, bad point index) exits 2.
func crashSweepVerb(fs *flag.FlagSet) func([]string) int {
	seed := fs.Int64("seed", 1, "base seed of the sweep")
	seeds := fs.Int("seeds", 1, "number of seeds swept: seed, seed+1, ...")
	point := fs.Int("point", -1, "replay this single crash point instead of the whole sweep (the replay command a failing report prints)")
	jsonOut := fs.String("json", "", "write the sweep reports as JSON to this file for offline inspection with 'bmsctl crash' (- for stdout)")
	var parallel int
	registerParallel(fs, &parallel)

	return func(args []string) int {
		if len(args) > 0 {
			return fail(fs, 2, fmt.Errorf("unexpected argument %q", args[0]))
		}
		if err := atLeastOne("seeds", *seeds); err != nil {
			return fail(fs, 2, err)
		}
		// A point replay is one seed's single cell and writes no export.
		if *point >= 0 && *seeds != 1 {
			return fail(fs, 2, fmt.Errorf("-point replays one point of -seed alone; it cannot be combined with -seeds %d", *seeds))
		}
		if *point >= 0 && *jsonOut != "" {
			return fail(fs, 2, fmt.Errorf("-point replays one point and writes no -json export"))
		}
		start := time.Now()
		if *point >= 0 {
			pt, err := experiments.RunCrashPoint(*seed, *point, crash.Config{})
			if err != nil {
				return fail(fs, 2, err)
			}
			fmt.Fprintf(os.Stderr, "(crash point in %.1fs wall)\n", time.Since(start).Seconds())
			rep := &crash.SweepReport{Seed: *seed, Points: []crash.PointReport{pt}, Digest: pt.Digest}
			rep.WriteText(os.Stdout)
			verdict := "PASS"
			if !rep.Clean() {
				verdict = "FAIL"
			}
			fmt.Println("verdict:", verdict)
			return status(rep.Clean())
		}
		sw, err := experiments.RunCrashSweep(experiments.CrashSweepOptions{
			Seed: *seed, Seeds: *seeds, Parallel: parallel,
		})
		if err != nil {
			return fail(fs, 2, err)
		}
		fmt.Fprintf(os.Stderr, "(crash sweep of %d seed(s) x %d points in %.1fs wall, parallel=%d)\n",
			*seeds, len(sw.Reports[0].Points), time.Since(start).Seconds(), parallel)
		sw.WriteReport(os.Stdout)
		if *jsonOut != "" {
			if err := writeTo(*jsonOut, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				if len(sw.Reports) == 1 {
					return enc.Encode(sw.Reports[0])
				}
				return enc.Encode(sw.Reports)
			}); err != nil {
				return fail(fs, 1, err)
			}
		}
		return status(sw.Clean())
	}
}

// chaosVerb is `bmsctl chaos`, described in the package comment.
func chaosVerb(fs *flag.FlagSet) func([]string) int {
	var parallel int
	registerParallel(fs, &parallel)

	return func(args []string) int {
		if len(args) != 1 {
			return fail(fs, 2, fmt.Errorf("want one <seed>[,count] argument, got %d", len(args)))
		}
		seedArg, countArg, hasCount := strings.Cut(args[0], ",")
		seed, err := strconv.ParseInt(strings.TrimSpace(seedArg), 10, 64)
		if err != nil {
			return fail(fs, 2, fmt.Errorf("seed %q: %v", seedArg, err))
		}
		count := 1
		if hasCount {
			if count, err = strconv.Atoi(strings.TrimSpace(countArg)); err != nil || count < 1 {
				return fail(fs, 2, fmt.Errorf("count %q must be a positive integer", countArg))
			}
		}
		start := time.Now()
		c := experiments.RunChaosCampaign(experiments.ChaosOptions{Seed: seed, Runs: count, Parallel: parallel})
		c.WriteReport(os.Stdout)
		fmt.Fprintf(os.Stderr, "(%d chaos runs in %.1fs wall, parallel=%d)\n",
			count, time.Since(start).Seconds(), parallel)
		return status(c.OK())
	}
}
