// Command bmstore-bench regenerates every table and figure of the BM-Store
// paper's evaluation on the simulator and prints them as text tables.
//
// Usage:
//
//	bmstore-bench [-scale fast|full] [-parallel N] [-only fig8,fig11,...] [-list]
//	              [-json out.json] [-check goldens/] [-write-goldens goldens/]
//	bmstore-bench -fleet 64 [-fleet-wave 4] [-fleet-seed 1] [-fleet-json out.json]
//	bmstore-bench -fleet 64 -fleet-seed 1 -fleet-host 10
//	bmstore-bench -crash-sweep [-crash-seed 1] [-crash-seeds N] [-crash-json out.json]
//	bmstore-bench -crash-sweep -crash-seed 1 -crash-point 4
//
// Independent rigs (each fio cell, each seed, each VM-count point) fan out
// on a bounded worker pool; -parallel 1 and -parallel N produce
// byte-identical stdout — and a byte-identical -json export — because rows
// are assembled in cell order and each rig owns a private simulation
// environment. Timing goes to stderr so stdout stays deterministic and
// diffable.
//
// The fidelity flags turn the run into a paper-fidelity gate: -json writes
// the structured Result records, -check compares them (and the paper-shape
// assertions) against checked-in goldens and exits nonzero on any drift or
// shape violation, and -write-goldens blesses the current numbers — after
// the shape layer confirms they still support the paper's claims.
//
// -crash-sweep switches to the crash-recovery sweep: the BM-Engine is
// hard-crashed at every pipeline-stage boundary of a probed request (one
// rig per crash instant, see internal/experiments) and each run is checked
// for acked-write loss, CID-book balance, and bounded recovery. Exit 1
// means a point failed — the report names it with an exact replay command,
// which is what -crash-point runs. -crash-json exports the reports for
// `bmsctl crash`.
//
// -fleet N switches to the fleet deployment simulator: N independent
// BM-Store hosts with seeded tenant placements, rolled through a firmware
// hot-upgrade in -fleet-wave batches with a health gate between waves (see
// internal/fleet). The report is byte-identical for any -parallel value;
// exit status 1 means a wave tripped the gate. -fleet-host K replays one
// host alone — the reproducer a gate failure points at.
//
// The observability and fault flags (-trace, -metrics, -timeline, -faults,
// -chaos, ...) are the shared run-option surface of internal/cli, identical
// across fiosim, bmstore-bench and the fleet simulator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bmstore/internal/cli"
	"bmstore/internal/crash"
	"bmstore/internal/experiments"
	"bmstore/internal/fidelity"
	"bmstore/internal/fleet"
	"bmstore/internal/obs/timeline"
)

func main() { os.Exit(realMain()) }

// realMain is main with an exit code, so deferred cleanup (profiles, the
// trace dump) runs before the process exits.
func realMain() int {
	scale := flag.String("scale", "fast", "run scale: fast or full")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.String("json", "", "write structured Result records as deterministic JSON to this file (- for stdout)")
	checkDir := flag.String("check", "", "compare results against the goldens in this directory and exit nonzero on drift or shape violation")
	writeGoldens := flag.String("write-goldens", "", "bless the current results as goldens in this directory (refused if they violate the paper shape)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	fleetN := flag.Int("fleet", 0, "run the fleet deployment simulator over this many hosts instead of the evaluation sweep (0 = off)")
	fleetWave := flag.Int("fleet-wave", 4, "hosts hot-upgraded per rolling wave (with -fleet)")
	fleetSeed := flag.Int64("fleet-seed", 1, "fleet seed; host i simulates with seed+i (with -fleet)")
	fleetHost := flag.Int("fleet-host", -1, "replay this single host of the fleet instead of the whole rollout (with -fleet)")
	fleetSSDs := flag.Int("fleet-ssds", 1, "backend SSDs per host, each hot-upgraded in turn (with -fleet)")
	fleetJSON := flag.String("fleet-json", "", "write the fleet result as JSON to this file for offline inspection with 'bmsctl fleet' (- for stdout)")
	crashSweep := flag.Bool("crash-sweep", false, "run the engine crash-point sweep instead of the evaluation sweep: one crash rig per pipeline-stage boundary, exit 1 on any violation")
	crashSeed := flag.Int64("crash-seed", 1, "base seed of the crash sweep (with -crash-sweep)")
	crashSeeds := flag.Int("crash-seeds", 1, "number of seeds swept: seed, seed+1, ... (with -crash-sweep)")
	crashPoint := flag.Int("crash-point", -1, "replay this single crash point instead of the whole sweep (with -crash-sweep; the replay command a failing report prints)")
	crashJSON := flag.String("crash-json", "", "write the crash-sweep reports as JSON to this file for offline inspection with 'bmsctl crash' (- for stdout)")
	var ropts cli.RunOptions
	ropts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := ropts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if ropts.Chaos != "" {
		start := time.Now()
		return cli.RunChaos(ropts.Chaos, ropts.Parallel, os.Stdout, os.Stderr,
			func() float64 { return time.Since(start).Seconds() })
	}

	var sc experiments.Scale
	switch *scale {
	case "fast":
		sc = experiments.Fast()
	case "full":
		sc = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 2
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
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// The shared wiring: per-rig trace and metrics families, parsed fault
	// schedule, trace dump destination. Every rig — sweep cell or fleet
	// host — is configured through Run's bmstore.Option slices; nothing
	// below writes the deprecated Config observability fields.
	run, err := ropts.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer run.Close()

	exitCode := 0
	if *crashSweep {
		exitCode = runCrashSweep(run, *crashSeed, *crashSeeds, *crashPoint, *crashJSON)
	} else if *fleetN > 0 {
		exitCode = runFleet(run, sc, *fleetN, *fleetWave, *fleetSSDs, *fleetSeed, *fleetHost, *fleetJSON)
	} else {
		exitCode = runSweep(run, sc, sel, *only, *jsonOut, *checkDir, *writeGoldens)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		f.Close()
	}
	return exitCode
}

// runSweep executes the paper-evaluation sweep: the selected experiments on
// a harness carrying the shared run wiring, then the observability exports
// and the fidelity gate. Returns the process exit code.
func runSweep(run *cli.Run, sc experiments.Scale, sel []experiments.Experiment, only, jsonOut, checkDir, writeGoldens string) int {
	h := experiments.NewHarness(sc, run.Opts.Parallel, run.Traces).
		WithMetrics(run.Metrics).
		WithFaults(run.Rules)

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
	if run.Traces != nil {
		if err := run.FlushTrace(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("trace: %d rigs, %d events, digest %s\n",
			run.Traces.Rigs(), run.Traces.Events(), run.Traces.Digest())
	}
	if run.Opts.Breakdown {
		if err := run.Metrics.WriteBreakdown(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if run.Opts.Metrics {
		if err := run.Metrics.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := run.WriteMetricsOut(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if run.Opts.Timeline {
		// Stderr, like the fidelity report: stdout must stay byte-identical
		// to the committed bench_tables.txt whether or not -timeline is on.
		if err := timeline.WriteSummary(os.Stderr, run.Metrics.TimelineDumps()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := run.WriteTimelineOut(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut != "" {
		if err := writeResults(&experiments.ResultSet{Scale: sc.Name, Results: results}, jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if writeGoldens != "" {
		if err := fidelity.WriteGoldens(writeGoldens, sc.Name, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d goldens to %s\n", len(results), writeGoldens)
	}
	if checkDir != "" {
		goldenScale, goldens, err := fidelity.LoadGoldens(checkDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if goldenScale != sc.Name {
			fmt.Fprintf(os.Stderr, "goldens in %s are %q scale; this run is %q — refusing to compare\n",
				checkDir, goldenScale, sc.Name)
			return 1
		}
		if only != "" {
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
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !rep.OK() {
			return 1
		}
	}
	return 0
}

// runCrashSweep executes the crash-point sweep (or one point's replay)
// with the shared run wiring. Returns the process exit code: 1 when any
// point reports a violation or finding, 2 when the sweep itself could not
// run (probe failure, bad point index).
func runCrashSweep(run *cli.Run, seed int64, seeds, point int, jsonOut string) int {
	start := time.Now()
	if point >= 0 {
		pt, err := experiments.RunCrashPoint(seed, point, crash.Config{}, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "(crash point in %.1fs wall)\n", time.Since(start).Seconds())
		rep := &crash.SweepReport{Seed: seed, Points: []crash.PointReport{pt}, Digest: pt.Digest}
		rep.WriteText(os.Stdout)
		if !rep.Clean() {
			fmt.Println("verdict: FAIL")
			return 1
		}
		fmt.Println("verdict: PASS")
		return 0
	}
	sw, err := experiments.RunCrashSweep(experiments.CrashSweepOptions{
		Seed: seed, Seeds: seeds, Parallel: run.Opts.Parallel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "(crash sweep of %d seed(s) x %d points in %.1fs wall, parallel=%d)\n",
		seeds, len(sw.Reports[0].Points), time.Since(start).Seconds(), run.Opts.Parallel)
	sw.WriteReport(os.Stdout)
	if jsonOut != "" {
		if err := writeTo(jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if len(sw.Reports) == 1 {
				return enc.Encode(sw.Reports[0])
			}
			return enc.Encode(sw.Reports)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !sw.Clean() {
		return 1
	}
	return 0
}

// runFleet executes the fleet deployment simulator (or a single-host
// replay) with the shared run wiring. The scale picks the firmware commit
// window — the device property that dominates the hot-upgrade pause.
// Returns the process exit code: 1 when a wave trips the health gate.
func runFleet(run *cli.Run, sc experiments.Scale, hosts, wave, ssds int, seed int64, replayHost int, jsonOut string) int {
	o := fleet.Options{
		Hosts:       hosts,
		WaveSize:    wave,
		Seed:        seed,
		SSDsPerHost: ssds,
		Parallel:    run.Opts.Parallel,
		FWCommitMin: sc.FWCommitMin,
		FWCommitMax: sc.FWCommitMax,
		Faults:      run.Rules,
		Traces:      run.Traces,
		Metrics:     run.Metrics,
	}
	start := time.Now()
	if replayHost >= 0 {
		if replayHost >= hosts {
			fmt.Fprintf(os.Stderr, "-fleet-host %d out of range: the fleet has hosts 0..%d\n", replayHost, hosts-1)
			return 2
		}
		hr := fleet.RunHost(o, replayHost)
		fmt.Fprintf(os.Stderr, "(host replay in %.1fs wall)\n", time.Since(start).Seconds())
		if err := hr.WriteReport(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := fleetExports(run); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !hr.Healthy {
			return 1
		}
		return 0
	}
	r := fleet.Run(o)
	fmt.Fprintf(os.Stderr, "(fleet of %d in %.1fs wall, parallel=%d)\n",
		hosts, time.Since(start).Seconds(), run.Opts.Parallel)
	if err := r.WriteReport(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut != "" {
		if err := writeTo(jsonOut, r.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := fleetExports(run); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !r.Passed() {
		return 1
	}
	return 0
}

// fleetExports drains the shared observability sinks after a fleet run:
// buffered trace dumps and the -metrics-out/-timeline-out files. The fleet
// report itself already carries the digests.
func fleetExports(run *cli.Run) error {
	if err := run.FlushTrace(); err != nil {
		return err
	}
	if run.Opts.Metrics && run.Metrics != nil {
		if err := run.Metrics.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	if err := run.WriteMetricsOut(); err != nil {
		return err
	}
	if run.Opts.Timeline && run.Metrics != nil {
		if err := timeline.WriteSummary(os.Stderr, run.Metrics.TimelineDumps()); err != nil {
			return err
		}
	}
	return run.WriteTimelineOut()
}

// writeResults exports the structured records to path, stdout for "-".
func writeResults(set *experiments.ResultSet, path string) error {
	return writeTo(path, set.WriteJSON)
}

// writeTo runs fn against path, stdout for "-".
func writeTo(path string, fn func(w io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
