// Command bench is the repository's benchmark: five workloads, end-to-end
// metrics in host time and in fidelity to the paper, and per-layer probes —
// every number taken from outside, by timing calls into the simulator's
// public functions. See README.md beside this file.
//
//	go run ./bench                       all workloads, untraced; prints every end-to-end metric
//	go run ./bench -traced               the same, then a traced run of each for the per-layer metrics
//	go run ./bench -agree A.json B.json  do two results files agree within BENCHMARK.json's bounds?
//	go run ./bench -describe             the metric catalogue as JSON
//
// The driver runs one workload at a time, through bench/run.sh:
//
//	--workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
	defaultSeed    = 42
	outDir         = ".bench_out" // traces and results land here, inside the checkout
	benchProcs     = 1            // GOMAXPROCS of every run; see runOne
)

func main() {
	var (
		o        runOpts
		trace    = flag.Int("trace", 0, "single run: 0 = end-to-end metrics, 1 = traced run with the per-layer metrics")
		detail   = flag.String("detail", "", "single run: also write the full result as JSON to this file")
		traced   = flag.Bool("traced", false, "all workloads: add a traced run of each")
		repeats  = flag.Int("repeats", 1, "all workloads: untraced runs of each, for -agree to see a spread")
		out      = flag.String("out", filepath.Join(outDir, "results.json"), "all workloads: results file")
		agree    = flag.Bool("agree", false, "compare two results files: -agree A.json B.json")
		describe = flag.Bool("describe", false, "print the workload and metric catalogue as JSON")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the contract line")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of every rig, load generator, application and fleet")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "host seconds the measured region lasts on the reference box: sets the number of rounds")
	flag.BoolVar(&o.quick, "quick", false, "1/20-scale smoke pass: prefix rounds only, one set-up")
	flag.Parse()

	switch {
	case *describe:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"workloads": workloadCatalogue, "end_to_end": endToEnd, "per_layer": perLayer, "claim": nil})
	case *agree:
		if flag.NArg() != 2 {
			fatalf("usage: bench -agree A.json B.json")
		}
		os.Exit(agreeFiles(flag.Arg(0), flag.Arg(1)))
	case o.workload != "":
		if lookupWorkload(o.workload) == nil {
			fatalf("unknown workload %q", o.workload)
		}
		o.trace = *trace != 0
		r := runOne(o)
		if *detail != "" {
			if err := writeJSON(*detail, r); err != nil {
				fatalf("%v", err)
			}
		}
		if r.Error != "" {
			// No result line: the driver must see a failed run, not a
			// wrong number.
			fatalf("%s: %s", o.workload, r.Error)
		}
		for _, c := range r.Checks {
			fmt.Fprintf(os.Stderr, "bench: %s: output check failed: %s\n", o.workload, c)
		}
		fmt.Println(contractLine(r))
	default:
		os.Exit(runAll(o, *traced, *repeats, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process. A panic on this goroutine or in
// one of the benchmark's own simulation processes becomes a failed result.
func runOne(o runOpts) (r *runResult) {
	if o.quick {
		o.seconds, o.setups = 0, 1
	}
	// The rounds of a run differ — databases grow, pacers and collectors
	// cycle — so a run measures a fixed number of them, the same ones
	// whatever the host's speed that minute: as many as fill --seconds on
	// the box the catalogue's round times were taken on.
	if o.rounds = int(o.seconds/lookupInfo(o.workload).RoundS + 0.5); o.rounds < prefixRounds {
		o.rounds = prefixRounds
	}
	if o.setups <= 0 {
		o.setups = 5
		if o.workload == "apps-mixed" {
			o.setups = 3 // each loads four databases
		}
	}
	defer func() {
		if e := recover(); e != nil {
			r = failedRun(o, fmt.Sprint("panic: ", e))
		}
	}()
	// A simulation is one thread of control handed between goroutines. With
	// a second P idle, the Go scheduler wakes it to steal each woken
	// goroutine, so every hand-off crosses OS threads: 45 % slower here, and
	// on a shared host as noisy as the neighbours. One P is also what a
	// simulation gets as one worker of a sweep's pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	var sp *spans
	if o.trace {
		sp = newSpans(fmt.Sprintf("%s/seed%d", o.workload, o.seed))
	}
	m, err := lookupWorkload(o.workload).run(o, sp)
	if err != nil {
		return failedRun(o, err.Error())
	}
	if o.trace {
		runProbes(o, sp, m.layer)
	}
	r = assemble(o, m, sp)
	if o.trace && !o.quick {
		if err := writeTrace(o, sp); err != nil {
			return failedRun(o, err.Error())
		}
	}
	return r
}

func writeTrace(o runOpts, sp *spans) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, o.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultsFile is what `go run ./bench` writes and -agree reads.
type resultsFile struct {
	Env     envInfo      `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Claim   *string      `json:"claim"` // this benchmark claims no gain
	Runs    []*runResult `json:"runs"`
}

// runChild runs one workload in a re-exec'd child, so peak RSS and GC state
// are the workload's own and a crash costs one run, not the set.
func runChild(o runOpts) *runResult {
	exe, err := os.Executable()
	if err != nil {
		return failedRun(o, err.Error())
	}
	// The child hands its full result back through a file in the
	// checkout; its standard output carries only the contract line.
	detail := filepath.Join(outDir, "detail-"+o.workload+".json")
	defer os.Remove(detail)
	tr := "0"
	if o.trace {
		tr = "1"
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", tr, "-detail", detail}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	var r runResult
	if b, err := os.ReadFile(detail); err == nil && json.Unmarshal(b, &r) == nil && r.Workload != "" {
		return &r
	}
	msg := strings.TrimSpace(stderr.String())
	if i := strings.LastIndex(msg, "\n"); len(msg) > 400 && i > 0 {
		msg = msg[:400]
	}
	return failedRun(o, fmt.Sprintf("child died (%v): %s", runErr, msg))
}

// runAll is the human entry point: every workload in a child of its own,
// one row per metric, output checks, one results file.
func runAll(o runOpts, traced bool, repeats int, out string) int {
	file := resultsFile{Env: readEnv(), Seed: o.seed, Seconds: o.seconds}
	e := file.Env
	fmt.Printf("bench: commit %s, %s, GOMAXPROCS %d of %d CPUs (%s), load %.2f\n",
		e.GitCommit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel, e.LoadAvg1)
	if e.LoadAvg1 > float64(e.NProc) {
		fmt.Printf("WARNING  load average %.2f exceeds %d CPUs: host-time metrics will be noisy\n", e.LoadAvg1, e.NProc)
	}
	bad := 0
	fingerprints := map[string]string{}
	for _, w := range workloadCatalogue {
		for pass := 0; pass < repeats+1; pass++ {
			o.workload, o.trace = w.Name, pass == repeats
			if o.trace && !traced {
				continue
			}
			r := runChild(o)
			file.Runs = append(file.Runs, r)
			printRun(r)
			if !r.Correct {
				bad++
			}
			if prev, ok := fingerprints[w.Name]; ok && prev != r.Fingerprint {
				fmt.Printf("CHECK FAILED  %s: sim_fingerprint changed between repeats (%s, %s)\n", w.Name, prev, r.Fingerprint)
				bad++
			}
			fingerprints[w.Name] = r.Fingerprint
		}
	}
	// Observers are passive: the telemetry rig must have simulated exactly
	// what the bare rig did.
	if a, b := fingerprints["rand4k"], fingerprints["rand4k-telemetry"]; a != b {
		fmt.Printf("CHECK FAILED  rand4k and rand4k-telemetry sim_fingerprints differ (%s, %s)\n", a, b)
		bad++
	}
	if traced {
		printTracedOverhead(file.Runs)
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("bench: results in %s", out)
	if traced {
		fmt.Printf(", traces in %s/<workload>.trace.json", outDir)
	}
	fmt.Println()
	if bad > 0 {
		fmt.Printf("bench: %d check(s) failed\n", bad)
		return 1
	}
	return 0
}

func printRun(r *runResult) {
	kind, infos := "untraced", endToEnd
	if r.Traced {
		kind, infos = "traced", perLayer
	}
	fmt.Printf("\n%s (%s, seed %d): %d rounds, %d slices, %d I/Os, sim_fingerprint %s\n",
		r.Workload, kind, r.Seed, r.Rounds, r.Slices, r.IOs, r.Fingerprint)
	if r.Error != "" {
		fmt.Printf("  RUN FAILED  %s\n", r.Error)
	}
	for _, mi := range infos {
		if v, ok := r.Metrics[mi.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s [%s]\n", mi.Name, v.Value, v.Unit, mi.Domain)
		}
	}
	if !r.Traced {
		fmt.Printf("  %-34s %14.4f %-6s [%s] raw: wall_s before the reference scaling\n", "wall_raw_s", r.WallRawS, "s", domHost)
		fmt.Printf("  %-34s %14.4f %-6s [%s] reference kernel / nominal: above 1, the box ran slow\n", "machine_slow", r.MachineSlow, "ratio", domHost)
		fmt.Printf("  %-34s %14.4f %-6s [%s]\n", "peak_rss_mib", r.PeakRSSMiB, "MiB", domHost)
		fmt.Printf("  %-34s %14.4f %-6s [%s]\n", "paper_err_pct", r.PaperErrPct, "%", domSim)
		fmt.Printf("  %-34s %14.6f %-6s [%s] (%d of %d)\n", "io_fail_share", r.IOFailShare, "ratio", domSim, r.Failed, r.Attempted)
	}
	for _, c := range r.Checks {
		fmt.Printf("  CHECK FAILED  %s\n", c)
	}
	if r.Traced {
		fmt.Printf("  %-34s %10s %12s %12s\n", "span", "n", "total ms", "self ms")
		for _, s := range r.Spans {
			fmt.Printf("  %-34s %10d %12.1f %12.1f\n", s.Name, s.N, s.TotalMS, s.SelfMS)
		}
	}
}

// printTracedOverhead compares each workload's traced and untraced rounds,
// in reference time: how far the traced run's per-layer numbers can be
// trusted.
func printTracedOverhead(runs []*runResult) {
	fmt.Println()
	for _, w := range workloadCatalogue {
		var plain, traced *runResult
		for _, r := range runs {
			if r.Workload == w.Name && r.Traced {
				traced = r
			} else if r.Workload == w.Name {
				plain = r
			}
		}
		if plain == nil || traced == nil || plain.IOs == 0 || traced.IOs == 0 {
			continue
		}
		perIO := func(r *runResult) float64 { return r.WallRefS / float64(r.IOs) }
		fmt.Printf("  %-34s %14.1f %-6s [%s] %s\n", "bench.traced_overhead_pct",
			(perIO(traced)/perIO(plain)-1)*100, "%", domHost, w.Name)
	}
}
