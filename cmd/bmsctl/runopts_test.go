package main

import (
	"flag"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/sim"
)

// sharedFlags is the run-option surface fio, sweep and fleet-run share, with
// each flag's help text.
var sharedFlags = map[string]string{
	"trace":        "write a human-readable event trace to this file (- for stderr)",
	"trace-digest": "compute and print determinism digests over the run's rigs",
	"metrics":      "collect metrics and print the per-component summary",
	"metrics-out":  "write the metrics snapshot to this file (.csv for CSV, otherwise JSON; - for stdout)",
	"breakdown":    "print the per-stage request latency breakdown table",
	"timeline":     "record sampled request timelines + worst-K tail forensics and print the tail-attribution summary",
	"timeline-out": "write recorded timelines as Chrome/Perfetto trace-event JSON to this file (- for stdout; implies recording)",
	"sample":       "timeline sampling rate: keep every Nth request (with -timeline)",
	"slowest":      "retain the K slowest requests' complete timelines (with -timeline)",
	"parallel":     "max concurrent rigs (1 = serial)",
	"faults":       "fault-injection spec, e.g. 'ssd-stall,t=20ms,dur=10ms;media-slow,nth=100,count=-1,dur=2ms' (enables driver timeout/retry recovery)",
}

// flagsOf registers verb name's flags on a fresh FlagSet, as bmsctl does.
func flagsOf(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("bmsctl "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	verbs[name](fs)
	return fs
}

// TestSharedFlagParity pins the shared run-option surface: every verb that
// registers a shared flag gives it the one canonical help text, and no two
// verbs give it different defaults.
func TestSharedFlagParity(t *testing.T) {
	defaults := map[string]string{}
	for _, name := range slices.Sorted(maps.Keys(verbs)) {
		flagsOf(name).VisitAll(func(f *flag.Flag) {
			usage, isShared := sharedFlags[f.Name]
			if !isShared || slices.Contains(ownFlags[name], f.Name) {
				return
			}
			if f.Usage != usage {
				t.Errorf("%s -%s help text drifted:\n got  %q\n want %q", name, f.Name, f.Usage, usage)
			}
			if d, seen := defaults[f.Name]; seen && d != f.DefValue {
				t.Errorf("%s -%s defaults to %q, another verb to %q", name, f.Name, f.DefValue, d)
			}
			defaults[f.Name] = f.DefValue
		})
	}
}

// ownFlags lists each verb's flags outside the shared set.
var ownFlags = map[string][]string{
	"fio":         {"bs", "iodepth", "numjobs", "ramp", "runs", "runtime", "rw", "scheme", "seed", "ssds", "trace-sha256"},
	"sweep":       {"check", "cpuprofile", "json", "list", "memprofile", "only", "scale", "write-goldens"},
	"fleet-run":   {"host", "hosts", "json", "scale", "seed", "ssds", "wave"},
	"crash-sweep": {"json", "point", "seed", "seeds"},
}

// TestRunVerbsShareOneFlagSet pins every verb's flag names: each run verb
// holds its own flags plus exactly the shared set; chaos and crash-sweep take
// -parallel alone, so a -faults next to a chaos campaign cannot be written;
// the offline viewers take none.
func TestRunVerbsShareOneFlagSet(t *testing.T) {
	shared := slices.Sorted(maps.Keys(sharedFlags))
	for _, name := range slices.Sorted(maps.Keys(verbs)) {
		want := slices.Clone(ownFlags[name])
		switch name {
		case "fio", "sweep", "fleet-run":
			want = append(want, shared...)
		case "chaos", "crash-sweep":
			want = append(want, "parallel")
		}
		slices.Sort(want)
		var got []string
		flagsOf(name).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, want) {
			t.Errorf("%s flags:\n got  %v\n want %v", name, got, want)
		}
	}
}

// TestClassicFlagIsGone: -classic selected the process-per-command data path,
// which no longer exists. No run verb may keep accepting (and ignoring) it:
// parsing it is the standard unknown-flag usage error, exit status 2.
func TestClassicFlagIsGone(t *testing.T) {
	for _, name := range []string{"fio", "sweep", "fleet-run", "crash-sweep", "chaos"} {
		err := flagsOf(name).Parse([]string{"-classic"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -classic") {
			t.Errorf("%s -classic: got %v, want the unknown-flag error", name, err)
		}
	}
}

// TestBuildRigOptions exercises the build -> harness Options -> testbed chain:
// the composed options must arm tracing, metrics and faults on a real rig
// without any direct Config field writes.
func TestBuildRigOptions(t *testing.T) {
	o := runOptions{
		traceDigest: true,
		metrics:     true,
		faults:      "media-slow,nth=1,count=-1,dur=1ms",
		sampleEvery: 64,
		slowestK:    4,
		parallel:    1,
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := o.build()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if r.traces == nil || r.metrics == nil || len(o.rules) != 1 {
		t.Fatalf("build wiring incomplete: traces=%v metrics=%v rules=%d", r.traces, r.metrics, len(o.rules))
	}
	if dcfg := r.driverConfig(); dcfg != experiments.FleetFaultDriver {
		t.Errorf("faulted run got driver %+v, want the recovering experiments.FleetFaultDriver", dcfg)
	}

	cfg := bmstore.DefaultConfig()
	tb, err := bmstore.NewBMStoreTestbed(cfg, r.harness(experiments.Scale{}).Options("rig0")...)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) {})
	if r.traces.Tracer("rig0").Events() == 0 {
		t.Error("rig tracer recorded no events — WithTrace wiring broken")
	}
	if tb.Metrics() == nil {
		t.Error("rig has no metrics registry — WithMetrics wiring broken")
	}
	if tb.Env.Faults() == nil {
		t.Error("rig has no fault injector — WithFaults wiring broken")
	}
}
