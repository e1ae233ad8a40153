package bmstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bmstore/internal/chaos"
	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// These tests are the path-equivalence proof for faulted and chaos rigs,
// which now run the fused data path like every other rig. Each scenario runs
// on the default path and on the classic reference path (WithClassicPath)
// with a dumping tracer; after dropping the kernel's own "sim" records —
// the spawn/resume of per-command processes exists on the classic path only
// — the remaining component-record streams must be byte-equal: every
// doorbell, dispatch, media issue, CQE, MI exchange and fired fault, with
// its virtual timestamp, its words and its position. internal/trace and
// internal/experiments hold the same proof for the pinned determinism rigs
// and a crash-sweep point.

// componentRecords drops the "sim" subsystem lines from a trace dump.
func componentRecords(dump []byte) string {
	var b strings.Builder
	for _, ln := range strings.SplitAfter(string(dump), "\n") {
		if f := strings.Fields(ln); len(f) > 1 && f[1] == "sim" {
			continue
		}
		b.WriteString(ln)
	}
	return b.String()
}

// firings extracts every fired-fault record together with the record that
// precedes it. For the media and hazard points that predecessor is the
// victim command's own `ssd issue` record (opcode, device byte, length), so
// equal firings mean the rule hit the same command at the same instant.
func firings(records string) []string {
	var out []string
	lines := strings.Split(records, "\n")
	for i, ln := range lines {
		if f := strings.Fields(ln); len(f) > 1 && f[1] == "fault" {
			prev := ""
			if i > 0 {
				prev = strings.TrimSpace(lines[i-1])
			}
			out = append(out, prev+" => "+strings.TrimSpace(ln))
		}
	}
	return out
}

// pathRun is what one traced run leaves behind for the A/B comparison.
type pathRun struct {
	records  string // component records, in emission order
	events   uint64 // all traced events, kernel records included
	end      sim.Time
	injected uint64
	snapshot []byte // metrics snapshot minus the path-cost instruments
	spawns   uint64 // sim.procs_spawned
}

// dumpTracer returns a tracer dumping into buf, and a registry.
func dumpTracer(buf *bytes.Buffer) (*trace.Tracer, *obs.Registry) {
	return trace.New(trace.Options{Dump: buf}), obs.NewRegistry()
}

func finishPathRun(t *testing.T, tr *trace.Tracer, dump *bytes.Buffer, met *obs.Registry) pathRun {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	spawns := counterValue(t, snap, "sim", "procs_spawned")
	stripPathCost(&snap)
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return pathRun{
		records: componentRecords(dump.Bytes()), events: tr.Events(),
		snapshot: js, spawns: spawns,
	}
}

func runScenarioPath(t *testing.T, s Scenario, opts ...Option) pathRun {
	t.Helper()
	var dump bytes.Buffer
	tr, met := dumpTracer(&dump)
	tb := s.Run(append(opts, WithTrace(tr), WithMetrics(met))...)
	r := finishPathRun(t, tr, &dump, met)
	r.end = tb.Env.Now()
	r.injected = tb.Env.Faults().Injected()
	return r
}

// comparePaths holds the fused run to the classic reference.
func comparePaths(t *testing.T, fused, classic pathRun) {
	t.Helper()
	if fused.end != classic.end {
		t.Errorf("final clocks diverged: fused %d, classic %d", fused.end, classic.end)
	}
	if fused.injected != classic.injected {
		t.Errorf("injected-fault counts diverged: fused %d, classic %d", fused.injected, classic.injected)
	}
	if fused.records != classic.records {
		t.Errorf("component records diverged (%d vs %d bytes)", len(fused.records), len(classic.records))
	}
	if !bytes.Equal(fused.snapshot, classic.snapshot) {
		t.Errorf("metrics snapshots (driver, engine and SSD counters, spans) diverged: %d vs %d bytes",
			len(fused.snapshot), len(classic.snapshot))
	}
	// What must differ is the kernel's share: the default run spawns no
	// process per command, tracer and injector notwithstanding.
	if fused.events >= classic.events || fused.spawns*2 > classic.spawns {
		t.Errorf("default run is not on the fused path: %d traced events and %d spawns, classic %d and %d",
			fused.events, fused.spawns, classic.events, classic.spawns)
	}
}

func TestFaultScenarioPathEquivalence(t *testing.T) {
	for name, s := range map[string]Scenario{
		"hot-unplug":        hotUnplugScenario(42, nil),
		"hot-upgrade-stall": hotUpgradeStallScenario(42, nil),
	} {
		s := s
		t.Run(name, func(t *testing.T) {
			fused := runScenarioPath(t, s)
			classic := runScenarioPath(t, s, WithClassicPath())
			if fused.injected == 0 || len(firings(fused.records)) == 0 {
				t.Fatal("the scenario's fault never fired")
			}
			comparePaths(t, fused, classic)
		})
	}
}

// runChaosPath executes one schedule on the campaign rig and returns the
// traced evidence next to the checked run.
func runChaosPath(t *testing.T, sch chaos.Schedule, opts ...Option) (pathRun, ChaosRun) {
	t.Helper()
	var dump bytes.Buffer
	tr, met := dumpTracer(&dump)
	run := runChaosSchedule(sch, ChaosOptions{}, tr, met, opts...)
	r := finishPathRun(t, tr, &dump, met)
	r.injected = run.Report.Injected
	return r, run
}

// compareChaos adds the chaos evidence — workload tallies, driver counters,
// per-point firings, oracle violations with their LBAs, stall diagnosis —
// and the checker's verdict to the path comparison.
func compareChaos(t *testing.T, sch chaos.Schedule) (fused pathRun, run ChaosRun) {
	t.Helper()
	fused, run = runChaosPath(t, sch)
	classic, crun := runChaosPath(t, sch, WithClassicPath())
	comparePaths(t, fused, classic)
	if !reflect.DeepEqual(run.Report, crun.Report) {
		t.Errorf("chaos reports diverged:\nfused:   %+v\nclassic: %+v", run.Report, crun.Report)
	}
	if !reflect.DeepEqual(run.Findings, crun.Findings) {
		t.Errorf("chaos verdicts diverged: fused %v, classic %v", run.Findings, crun.Findings)
	}
	return fused, run
}

func TestChaosSchedulePathEquivalence(t *testing.T) {
	var hazard, benign int
	for seed := int64(1); seed <= 6; seed++ {
		sch := chaos.Generate(seed, chaosTargets(), chaos.Params{})
		if sch.Hazard {
			hazard++
		} else {
			benign++
		}
		_, run := compareChaos(t, sch)
		if !run.OK() {
			t.Errorf("seed %d: generated schedule did not verify clean: %v", seed, run.Findings)
		}
	}
	if hazard == 0 || benign == 0 {
		t.Fatalf("seeds cover %d hazard and %d benign schedules; want both regimes", hazard, benign)
	}
}

// TestFaultRulesFireOnTheSameCommand walks every data-path fault kind with
// an nth= and a t= rule (stall windows have only t=) on the campaign rig's
// write-then-verify workload. On both paths the rule must fire the same
// number of times, on the same command at the same virtual instant, and —
// for the three CaptureData hazards — damage the same bytes: the oracle
// reports the same violations at the same LBAs.
func TestFaultRulesFireOnTheSameCommand(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		hazard bool
	}{
		{"media-err,nth=5,status=0x281", false},
		{"media-err,t=1ms,status=0x281", false},
		{"media-slow,nth=7,count=3,dur=400us", false},
		{"media-slow,t=1ms,dur=400us", false},
		{"ssd-stall,t=200us,dur=2ms,target=CH0", false},
		{"backend-stall,t=200us,dur=2ms,target=CH0", false},
		{"media-corrupt,nth=9", true},
		{"media-corrupt,t=1ms,count=2", true},
		{"misdirected-read,nth=4", true},
		{"misdirected-read,t=1ms", true},
		{"torn-write,nth=11", true},
		{"torn-write,t=900us,count=2", true},
	} {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			rules, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			fused, run := compareChaos(t, chaos.Schedule{Seed: 7, Hazard: tc.hazard, Rules: rules})
			fired := firings(fused.records)
			if run.Report.Injected == 0 || len(fired) == 0 {
				t.Fatalf("rule never fired (injected %d)", run.Report.Injected)
			}
			if tc.hazard && len(run.Report.Violations) == 0 {
				t.Errorf("hazard fired %d times but the oracle saw no damaged block", run.Report.Injected)
			}
			t.Logf("injected %d, violations %d, first firing: %s",
				run.Report.Injected, len(run.Report.Violations), fired[0])
		})
	}
}

// TestQoSParksSpawnNoGoroutines guards the fused path's QoS dispatcher. A
// capped tenant parks nearly every command, and the dispatcher used to be a
// process per park: on the fused path, with almost no other goroutine
// hand-offs left per I/O, the Go scheduler starved those finished goroutines
// of their last instructions, thousands of them stayed behind (5 294 on a
// fleet host with 7 live processes) and the runtime never frees their
// stacks' descriptors. The dispatcher is a continuation now, so the
// goroutine count sampled after every capped I/O must stay at the rig's
// handful of long-lived processes.
func TestQoSParksSpawnNoGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSSDs = 1
	met := obs.NewRegistry()
	tb, err := NewBMStoreTestbed(cfg, WithTrace(trace.NewDigest()), WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	const jobs, iosPerJob = 1, 4000
	var base, peak int
	tb.Run(func(p *sim.Proc) {
		// A fleet host's tenant: one 8000-IOPS namespace under a depth-1 job,
		// so the command buffer drains — and the dispatcher ends — per park.
		if err := tb.Console.CreateNamespace(p, "vol", 64<<30, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.Bind(p, "vol", 1); err != nil {
			t.Fatal(err)
		}
		if err := tb.Console.SetQoS(p, "vol", 8000, 0); err != nil {
			t.Fatal(err)
		}
		drv, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
		if err != nil {
			t.Fatal(err)
		}
		var done []*sim.Event
		for j := 0; j < jobs; j++ {
			bd := drv.BlockDev(j)
			done = append(done, tb.Go("tenant", func(tp *sim.Proc) {
				for i := 0; i < iosPerJob; i++ {
					if err := bd.ReadAt(tp, uint64(i), 1, nil); err != nil {
						panic(err)
					}
					if n := runtime.NumGoroutine(); n > peak {
						peak = n
					}
				}
			}).Done())
		}
		base = runtime.NumGoroutine() // every process of the run exists now
		for _, ev := range done {
			p.Wait(ev)
		}
	})
	parked := counterValue(t, met.Snapshot(), "engine/ns/vol", "qos_parked")
	if parked < jobs*iosPerJob/2 {
		t.Fatalf("only %d of %d commands parked; the cap is not biting", parked, jobs*iosPerJob)
	}
	if peak > base+8 {
		t.Fatalf("goroutines grew from %d to %d over %d QoS parks; the dispatcher is spawning per park",
			base, peak, parked)
	}
}
