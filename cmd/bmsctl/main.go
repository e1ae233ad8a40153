// Command bmsctl is the one front door to the simulator. Given a script, or
// nothing, it is the cloud operator's out-of-band management console against
// an in-process BM-Store testbed: every console action travels as NVMe-MI
// over MCTP over PCIe VDMs to the BMS-Controller, never through the
// (tenant-owned) host OS. Given a verb, it runs a workload, a sweep or a
// campaign, or renders an export offline.
//
// Usage:
//
//	bmsctl [-ssds N] [<script>]
//	bmsctl <verb> [flags] [args]
//
// A script is a semicolon-separated list of console commands (`bmsctl -h`
// lists them):
//
//	bmsctl "inventory; create vol0 256; bind vol0 5; qos vol0 50000 0; \
//	        health 0; upgrade 0 VDV10200; inventory"
//
// A command with a missing, stray or malformed argument prints its usage,
// and the script goes on and exits 1. With no script, a demo sequence runs.
//
// The run verbs (`bmsctl <verb> -h` lists each one's flags):
//
//	bmsctl fio [-scheme bmstore] [-rw randread] [-bs 4096] [-iodepth 128] [-runs N] ...
//
// runs an fio-style workload on one of the schemes the paper compares
// (native, vfio, bmstore, bmstore-vm, spdk), on -runs rigs seeded seed,
// seed+1, ... -ssds N stripes the namespace over N SSDs on bmstore and
// bmstore-vm; the other schemes attach one SSD. A spec fio cannot run (a -bs
// that is not a positive multiple of 4096, a count below 1, an unknown
// -scheme or -rw, -ssds above 1 on a scheme that does not stripe) exits 2
// before any rig is built. A run that dies (a fault schedule takes its only drive away) or
// wedges (it is not over by a horizon computed from the spec) is one stderr
// line naming the run, its seed and the cause; the other runs still report,
// and the exit status is 1.
//
//	bmsctl sweep [-scale fast|full] [-only fig8,...] [-list] [-json f] [-check dir] [-write-goldens dir]
//
// regenerates every table and figure of the paper's evaluation; with
// -trace-digest its stdout is bench_tables.txt. -check holds the results to
// the goldens and the paper-shape assertions and exits 1 on any drift;
// -write-goldens blesses them once the shape layer accepts them.
//
//	bmsctl fleet-run [-hosts 64] [-wave 4] [-seed 1] [-host K] [-json f]
//
// rolls a firmware hot-upgrade through -hosts BM-Store hosts, -wave at a
// time, with a health gate between waves; exit 1 means a wave tripped it.
// -host K replays one host alone, the reproducer a failure points at. A
// -hosts, -wave or -ssds below 1, or a -host outside -1..hosts-1, exits 2.
//
//	bmsctl crash-sweep [-seed 1] [-seeds 1] [-point P] [-json f]
//
// hard-crashes the BM-Engine at every pipeline-stage boundary of a probed
// request, one rig per instant, and checks each recovery for lost acked
// writes, CID-book balance and bounded time; -point P replays one instant
// of -seed alone, so it takes neither -seeds above 1 nor -json.
//
//	bmsctl chaos <seed>[,count]
//
// runs count seeded fault schedules under a write-then-verify workload; exit
// 1 means an invariant was violated. Every failure report of fleet-run,
// crash-sweep and chaos names the bmsctl command that replays it.
//
// fio, sweep and fleet-run share one set of run-option flags (runOptions):
// -trace, -trace-digest, -metrics, -metrics-out, -breakdown, -timeline,
// -timeline-out, -sample, -slowest, -parallel and -faults. chaos and
// crash-sweep take -parallel alone. Stdout and every -json export are
// byte-identical for any -parallel; timing goes to stderr. A -parallel below
// 1, and a seed of 0 for chaos, crash-sweep or fleet-run, exit 2.
//
// The offline verbs build no testbed:
//
//	bmsctl stats <snapshot.json> [topN]                 a -metrics-out snapshot
//	bmsctl timeline <trace.json> [waterfallN]           a -timeline-out Perfetto export
//	bmsctl fidelity-diff <goldens-dir> <results.json>   a sweep -json export against the goldens
//	bmsctl fleet <fleet.json>                           a fleet-run -json export
//	bmsctl crash <crash.json>                           a crash-sweep -json export
//	bmsctl trace-diff <dump-A> <dump-B>                 two -trace dumps, by their model records
//
// trace-diff prints the first record the two dumps' digests would fold
// differently, with a few records of context on each side, and skips the
// scheduler's dump-only records (`sim fire`, `spawn`, `resume`, `abort`):
// exit 0 when every model record matches, 1 at the first that does not.
//
// Every verb shares one exit contract: 0 success; 1 a run failed or a
// verdict is FAIL; 2 unusable input (an unknown flag, a stray argument, a
// bad value, a missing or malformed file), with the cause on stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bmstore"
	"bmstore/internal/crash"
	"bmstore/internal/experiments"
	"bmstore/internal/fidelity"
	"bmstore/internal/fleet"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
)

const demoScript = `version; subsys; ds 0; inventory; create vol0 256; bind vol0 5; qos vol0 50000 0; health 0; counters 5; upgrade 0 VDV10200 256; inventory; events`

// A verb registers its flags on fs and returns its body, which runs on the
// positional arguments once fs has parsed them and returns the exit status.
type verb func(fs *flag.FlagSet) func(args []string) int

// verbs is the one dispatch table. A command line that does not start with
// one of them is a console script.
var verbs = map[string]verb{
	"fio":           fioVerb,
	"sweep":         sweepVerb,
	"fleet-run":     fleetRunVerb,
	"crash-sweep":   crashSweepVerb,
	"chaos":         chaosVerb,
	"stats":         view(noVerdict(runStats)),
	"timeline":      view(noVerdict(runTimeline)),
	"fleet":         view(runFleetView),
	"fidelity-diff": view(runFidelityDiff),
	"crash":         view(runCrashView),
	"trace-diff":    view(runTraceDiff),
}

func main() { os.Exit(bmsctl(os.Args[1:])) }

// bmsctl runs one invocation and returns its exit status. Nothing below it
// exits the process.
func bmsctl(args []string) int {
	name, v := "bmsctl", verb(console)
	if len(args) > 0 {
		if w, ok := verbs[args[0]]; ok {
			name, v, args = "bmsctl "+args[0], w, args[1:]
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	body := v(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	return body(fs.Args())
}

// fail prints err on stderr under the verb's name and returns code.
func fail(fs *flag.FlagSet, code int, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
	return code
}

// status is the exit status of a run or a verdict: 0 ok, 1 failed.
func status(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// view adapts an offline viewer to a verb. A viewer takes no flags; its err
// is unusable input (exit 2) and ok=false a FAIL verdict (exit 1).
func view(fn func(args []string) (bool, error)) verb {
	return func(fs *flag.FlagSet) func([]string) int {
		return func(args []string) int {
			ok, err := fn(args)
			if err != nil {
				return fail(fs, 2, err)
			}
			return status(ok)
		}
	}
}

// noVerdict adapts a pure viewer (no pass/fail verdict) to the viewer
// contract.
func noVerdict(fn func(args []string) error) func(args []string) (bool, error) {
	return func(args []string) (bool, error) { return true, fn(args) }
}

// console runs a script of console commands against a fresh testbed, or the
// demonstration sequence when there is none. Exit 1 when a command failed.
func console(fs *flag.FlagSet) func([]string) int {
	ssds := fs.Int("ssds", 2, "number of backend SSDs in the testbed")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bmsctl [-ssds N] [<script>]\n       bmsctl <verb> [flags] [args]\nverbs: %s\ncommands:\n",
			strings.Join(slices.Sorted(maps.Keys(verbs)), " "))
		for _, cmd := range slices.Sorted(maps.Keys(consoleUsage)) {
			fmt.Fprintln(fs.Output(), " ", strings.TrimSpace(cmd+" "+consoleUsage[cmd]))
		}
		fs.PrintDefaults()
	}

	return func(args []string) int {
		script := strings.Join(args, " ")
		if strings.TrimSpace(script) == "" {
			script = demoScript
			fmt.Println("# no script given; running the demo sequence:")
			fmt.Println("#", script)
		}

		cfg := bmstore.DefaultConfig()
		cfg.NumSSDs = *ssds
		fmt.Printf("# building BM-Store testbed with %d SSDs...\n\n", *ssds)
		tb, err := bmstore.NewBMStoreTestbed(cfg)
		if err != nil {
			return fail(fs, 1, err)
		}

		ok := true
		tb.Run(func(p *sim.Proc) {
			for _, cmd := range strings.Split(script, ";") {
				fields := strings.Fields(strings.TrimSpace(cmd))
				if len(fields) == 0 {
					continue
				}
				fmt.Printf("bmsctl> %s\n", strings.Join(fields, " "))
				if err := consoleCmd(tb, p, fields); err != nil {
					fmt.Printf("  error: %v\n", err)
					ok = false
				}
				fmt.Println()
			}
		})
		return status(ok)
	}
}

// consoleUsage is each console command's argument list: <x> is required,
// [x] optional, [x...] any number more. consoleCmd checks a command's arity
// against it before anything reaches the card.
var consoleUsage = map[string]string{
	"version":   "",
	"inventory": "",
	"subsys":    "",
	"events":    "",
	"create":    "<name> <GB> [ssd...]",
	"bind":      "<name> <fn>",
	"qos":       "<name> <iops> <MBps>",
	"health":    "<ssd>",
	"counters":  "<fn>",
	"upgrade":   "<ssd> <version> [imageKB]",
	"ds":        "<0|1|2>",
}

// usageError is the error of a console command whose arguments do not fit
// its usage line.
func usageError(f []string) error {
	return fmt.Errorf("usage: %s", strings.TrimSpace(f[0]+" "+consoleUsage[f[0]]))
}

// intArg parses f[i], an integer argument of a console command.
func intArg(f []string, i int) (int, error) {
	n, err := strconv.Atoi(f[i])
	if err != nil {
		return 0, fmt.Errorf("%q is not an integer; %v", f[i], usageError(f))
	}
	return n, nil
}

// floatArg parses f[i], a numeric argument of a console command.
func floatArg(f []string, i int) (float64, error) {
	x, err := strconv.ParseFloat(f[i], 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a number; %v", f[i], usageError(f))
	}
	return x, nil
}

// consoleCmd runs one console command, f[0] with its arguments f[1:].
func consoleCmd(tb *bmstore.Testbed, p *sim.Proc, f []string) error {
	usage, known := consoleUsage[f[0]]
	if !known {
		return fmt.Errorf("unknown command %q", f[0])
	}
	n := len(f) - 1
	if n < strings.Count(usage, "<") || n > len(strings.Fields(usage)) && !strings.HasSuffix(usage, "...]") {
		return usageError(f)
	}

	c := tb.Console
	switch f[0] {
	case "version":
		v, err := c.Version(p)
		if err != nil {
			return err
		}
		fmt.Printf("  controller %s, engine %s\n", v.Controller, v.Engine)
	case "inventory":
		inv, err := c.Inventory(p)
		if err != nil {
			return err
		}
		for _, b := range inv.Backends {
			fmt.Printf("  ssd %d: %s %s fw=%s %dGB ready=%v\n", b.Index, b.Model, b.Serial, b.Firmware, b.GB, b.Ready)
		}
		for _, ns := range inv.Namespaces {
			bound := "unbound"
			if ns.BoundFn != nil {
				bound = fmt.Sprintf("fn %d", *ns.BoundFn)
			}
			fmt.Printf("  namespace %q: %d GB, %s\n", ns.Name, ns.SizeGB, bound)
		}
	case "create":
		gb, err := intArg(f, 2)
		if err != nil {
			return err
		}
		var ssds []int
		for i := range f[3:] {
			ssd, err := intArg(f, 3+i)
			if err != nil {
				return err
			}
			ssds = append(ssds, ssd)
		}
		if len(ssds) == 0 {
			ssds = []int{0}
		}
		if err := c.CreateNamespace(p, f[1], uint64(gb)<<30, ssds); err != nil {
			return err
		}
		fmt.Printf("  created %q (%d GB) on SSDs %v\n", f[1], gb, ssds)
	case "bind":
		fn, err := intArg(f, 2)
		if err != nil {
			return err
		}
		if err := c.Bind(p, f[1], uint8(fn)); err != nil {
			return err
		}
		fmt.Printf("  bound %q to function %d\n", f[1], fn)
	case "qos":
		iops, err := floatArg(f, 2)
		if err != nil {
			return err
		}
		mbps, err := floatArg(f, 3)
		if err != nil {
			return err
		}
		if err := c.SetQoS(p, f[1], iops, mbps*1e6); err != nil {
			return err
		}
		fmt.Printf("  qos on %q: %.0f IOPS, %.0f MB/s\n", f[1], iops, mbps)
	case "health":
		i, err := intArg(f, 1)
		if err != nil {
			return err
		}
		h, err := c.Health(p, i)
		if err != nil {
			return err
		}
		fmt.Printf("  ssd %d: %d C, %d%% used, fw %s\n", h.SSD, h.TempC, h.PercentUsed, h.Firmware)
	case "counters":
		fn, err := intArg(f, 1)
		if err != nil {
			return err
		}
		ctr, err := c.Counters(p, uint8(fn))
		if err != nil {
			return err
		}
		fmt.Printf("  fn %d: reads=%v writes=%v\n", fn, ctr["ReadOps"], ctr["WriteOps"])
	case "upgrade":
		i, err := intArg(f, 1)
		if err != nil {
			return err
		}
		kb := 256
		if len(f) > 3 {
			if kb, err = intArg(f, 3); err != nil {
				return err
			}
		}
		rep, err := c.HotUpgrade(p, i, f[2], kb)
		if err != nil {
			return err
		}
		fmt.Printf("  upgraded ssd %d to %s: total %.0f ms (ssd reset %.0f ms, bm-store %.0f ms), I/O pause %.0f ms\n",
			i, rep.Firmware, rep.TotalMS, rep.SSDResetMS, rep.EngineProcMS, rep.IOPauseMS)
	case "subsys":
		h, err := c.SubsystemHealth(p)
		if err != nil {
			return err
		}
		fmt.Printf("  healthy=%v composite %d C, max %d%% used, degraded drives: %d\n",
			h.Healthy, h.CompositeTempC, h.MaxPercentUsed, h.DegradedDrives)
	case "ds":
		typ, err := intArg(f, 1)
		if err != nil {
			return err
		}
		ds, err := c.ReadDataStructure(p, uint8(typ))
		if err != nil {
			return err
		}
		switch {
		case ds.Subsystem != nil:
			fmt.Printf("  subsystem %s: %d controllers, %d backends\n",
				ds.Subsystem.NQN, ds.Subsystem.Controllers, ds.Subsystem.Backends)
		case ds.Ports != nil:
			for _, pt := range ds.Ports {
				fmt.Printf("  port %d: %s\n", pt.ID, pt.Kind)
			}
		default:
			fmt.Printf("  active controllers: %v\n", ds.ActiveControllers)
		}
	case "events":
		for _, e := range tb.Controller.Events {
			fmt.Printf("  %s\n", e)
		}
	}
	return nil
}

// runFleetView implements `bmsctl fleet <fleet.json>`: the offline viewer
// for `fleet-run -json` exports. It re-renders the same deterministic report
// the fleet run printed — the Result carries every field the report needs,
// so no simulation runs. Returns ok=false (exit 1) when the rollout aborted.
func runFleetView(args []string) (bool, error) {
	if len(args) != 1 {
		return false, fmt.Errorf("usage: bmsctl fleet <fleet.json>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return false, err
	}
	defer f.Close()
	r, err := fleet.Load(f)
	if err != nil {
		return false, fmt.Errorf("%s: %v", args[0], err)
	}
	if err := r.WriteReport(os.Stdout); err != nil {
		return false, err
	}
	return r.Passed(), nil
}

// runCrashView implements `bmsctl crash <crash.json>`: the offline viewer
// for `crash-sweep -json` exports of the engine crash-point sweep. It
// re-renders the per-seed sweep tables — the Reports carry every field — so no
// simulation runs. Returns ok=false (exit 1) when any point failed.
func runCrashView(args []string) (bool, error) {
	if len(args) != 1 {
		return false, fmt.Errorf("usage: bmsctl crash <crash.json>")
	}
	reps, err := crash.LoadSweeps(args[0])
	if err != nil {
		return false, err
	}
	ok := true
	for _, r := range reps {
		r.WriteText(os.Stdout)
		if !r.Clean() {
			ok = false
		}
	}
	if ok {
		fmt.Println("verdict: PASS")
	} else {
		fmt.Println("verdict: FAIL")
	}
	return ok, nil
}

// runFidelityDiff implements `bmsctl fidelity-diff <goldens-dir>
// <results.json>`: the offline half of the paper-fidelity gate. It loads
// the goldens and a `sweep -json` export, runs the exact comparator and the
// shape checker, and prints the drift report to stdout. Returns ok=false when
// the report has findings (exit 1), an error for unusable inputs (exit 2).
func runFidelityDiff(args []string) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: bmsctl fidelity-diff <goldens-dir> <results.json>")
	}
	goldenScale, goldens, err := fidelity.LoadGoldens(args[0])
	if err != nil {
		return false, err
	}
	f, err := os.Open(args[1])
	if err != nil {
		return false, err
	}
	defer f.Close()
	set, err := experiments.ReadResultSet(f)
	if err != nil {
		return false, fmt.Errorf("%s: %v", args[1], err)
	}
	if set.Scale != goldenScale {
		return false, fmt.Errorf("results are %q scale but goldens in %s are %q — not comparable", set.Scale, args[0], goldenScale)
	}
	fmt.Printf("fidelity-diff: %d results (%s scale) vs %d goldens in %s\n",
		len(set.Results), set.Scale, len(goldens), args[0])
	rep := fidelity.Check(goldens, set.Results)
	if err := rep.Write(os.Stdout); err != nil {
		return false, err
	}
	return rep.OK(), nil
}

// runTimeline implements `bmsctl timeline <trace.json> [waterfallN]`: the
// offline viewer for -timeline-out Perfetto exports. It reparses the trace
// into timeline records, prints the tail-attribution summary, and renders
// ASCII waterfalls for the N slowest retained requests (default 1) — the
// terminal half of the forensics loop; the graphical half is loading the
// same file in ui.perfetto.dev.
func runTimeline(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: bmsctl timeline <trace.json> [waterfallN]")
	}
	waterfalls := 1
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 0 {
			return fmt.Errorf("bad waterfallN %q", args[1])
		}
		waterfalls = n
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	rigs, err := timeline.ReadTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %v", args[0], err)
	}
	fmt.Printf("trace %s:\n", args[0])
	if err := timeline.WriteSummary(os.Stdout, rigs); err != nil {
		return err
	}

	// Slowest-first waterfalls across all rigs: worst-K sets when present,
	// sampled records otherwise.
	type slowRec struct {
		rig string
		rec *timeline.Rec
	}
	var pool []slowRec
	for _, rig := range rigs {
		recs := rig.Worst
		if len(recs) == 0 {
			recs = rig.Samples
		}
		for _, r := range recs {
			pool = append(pool, slowRec{rig: rig.Name, rec: r})
		}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].rec.E2E() != pool[j].rec.E2E() {
			return pool[i].rec.E2E() > pool[j].rec.E2E()
		}
		return pool[i].rec.Seq < pool[j].rec.Seq
	})
	for i, s := range pool {
		if i >= waterfalls {
			break
		}
		fmt.Println()
		if err := timeline.WriteWaterfall(os.Stdout, s.rig, s.rec); err != nil {
			return err
		}
	}
	return nil
}

// runStats implements `bmsctl stats <snapshot.json> [topN]`: an offline
// pretty-printer for -metrics-out snapshots.
func runStats(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: bmsctl stats <snapshot.json> [topN]")
	}
	topN := 10
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad topN %q", args[1])
		}
		topN = n
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var multi obs.MultiSnapshot
	if err := json.Unmarshal(raw, &multi); err != nil {
		return fmt.Errorf("%s: %v", args[0], err)
	}
	if len(multi.Rigs) == 0 {
		// A single-registry snapshot is also accepted.
		var single obs.Snapshot
		if err := json.Unmarshal(raw, &single); err == nil &&
			(len(single.Components) > 0 || single.Spans != nil) {
			multi.Rigs = append(multi.Rigs, single)
		}
	}
	if len(multi.Rigs) == 0 {
		return fmt.Errorf("%s: no metrics in snapshot", args[0])
	}

	type stageRow struct {
		rig, op, stage string
		h              obs.HistSnap
	}
	type gaugeRow struct {
		rig, comp, name string
		peak            int64
	}
	type histRow struct {
		rig, comp string
		h         obs.HistSnap
	}
	var stages []stageRow
	var gauges []gaugeRow
	var hists []histRow
	var reads, writes, dropped, collisions uint64
	for _, rig := range multi.Rigs {
		name := rig.Name
		if name == "" {
			name = "-"
		}
		if sp := rig.Spans; sp != nil {
			reads += sp.Read.N
			writes += sp.Write.N
			dropped += sp.Dropped
			collisions += sp.Collisions
			for _, dir := range []struct {
				op string
				os obs.OpSpanSnap
			}{{"read", sp.Read}, {"write", sp.Write}} {
				for _, st := range dir.os.Stages {
					stages = append(stages, stageRow{rig: name, op: dir.op, stage: st.Name, h: st})
				}
			}
		}
		for _, c := range rig.Components {
			for _, g := range c.Gauges {
				if g.Peak > 0 {
					gauges = append(gauges, gaugeRow{rig: name, comp: c.Name, name: g.Name, peak: g.Peak})
				}
			}
			for _, h := range c.Hists {
				if h.N > 0 {
					hists = append(hists, histRow{rig: name, comp: c.Name, h: h})
				}
			}
		}
	}
	fmt.Printf("snapshot %s: %d rig(s), %d read spans, %d write spans",
		args[0], len(multi.Rigs), reads, writes)
	if dropped+collisions > 0 {
		fmt.Printf(" (%d dropped, %d collisions)", dropped, collisions)
	}
	fmt.Println()

	sort.SliceStable(stages, func(i, j int) bool { return stages[i].h.MeanNS > stages[j].h.MeanNS })
	if len(stages) > 0 {
		fmt.Printf("\ntop latency stages (by mean):\n")
		fmt.Printf("  %-12s %-6s %-10s %9s %10s %10s\n", "rig", "op", "stage", "count", "mean(us)", "p99(us)")
		for i, r := range stages {
			if i >= topN {
				break
			}
			fmt.Printf("  %-12s %-6s %-10s %9d %10.2f %10.2f\n",
				r.rig, r.op, r.stage, r.h.N, r.h.MeanNS/1e3, float64(r.h.P99NS)/1e3)
		}
	}

	sort.SliceStable(gauges, func(i, j int) bool { return gauges[i].peak > gauges[j].peak })
	if len(gauges) > 0 {
		fmt.Printf("\nqueue-depth peaks:\n")
		fmt.Printf("  %-12s %-20s %-14s %6s\n", "rig", "component", "gauge", "peak")
		for i, g := range gauges {
			if i >= topN {
				break
			}
			fmt.Printf("  %-12s %-20s %-14s %6d\n", g.rig, g.comp, g.name, g.peak)
		}
	}

	// Component histograms, e.g. the driver's events_per_io (kernel events
	// fired per I/O episode — the fleet-level cost event fusion attacks)
	// and the SSD's media_ns. Latency histograms (name ends in _ns) print
	// in µs; the rest are unitless counts and print raw.
	sort.SliceStable(hists, func(i, j int) bool { return hists[i].h.MeanNS > hists[j].h.MeanNS })
	if len(hists) > 0 {
		fmt.Printf("\ncomponent histograms:\n")
		fmt.Printf("  %-12s %-20s %-14s %9s %10s %10s %10s\n", "rig", "component", "hist", "count", "mean", "p50", "p99")
		for i, r := range hists {
			if i >= topN {
				break
			}
			if strings.HasSuffix(r.h.Name, "_ns") {
				fmt.Printf("  %-12s %-20s %-14s %9d %8.2fus %8.2fus %8.2fus\n",
					r.rig, r.comp, r.h.Name, r.h.N, r.h.MeanNS/1e3, float64(r.h.P50NS)/1e3, float64(r.h.P99NS)/1e3)
			} else {
				fmt.Printf("  %-12s %-20s %-14s %9d %10.2f %10d %10d\n",
					r.rig, r.comp, r.h.Name, r.h.N, r.h.MeanNS, r.h.P50NS, r.h.P99NS)
			}
		}
	}
	return nil
}
