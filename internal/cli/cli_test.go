package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/sim"
)

// collectFlags registers the shared surface on a fresh FlagSet, as one of
// the binaries would, and returns name -> (usage, default).
func collectFlags(t *testing.T) map[string][2]string {
	t.Helper()
	var o RunOptions
	fs := flag.NewFlagSet("bin", flag.ContinueOnError)
	o.RegisterFlags(fs)
	m := make(map[string][2]string)
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = [2]string{f.Usage, f.DefValue} })
	return m
}

// TestSharedFlagParity pins the shared run-option surface: every binary
// registering through RunOptions exposes exactly the canonical set, with
// identical help text, and two independent registrations (one per binary)
// cannot diverge.
func TestSharedFlagParity(t *testing.T) {
	fiosim := collectFlags(t)
	bench := collectFlags(t)

	if len(fiosim) != len(sharedFlags) {
		t.Errorf("registered %d flags, canonical set has %d", len(fiosim), len(sharedFlags))
	}
	for _, want := range sharedFlags {
		got, ok := fiosim[want.name]
		if !ok {
			t.Errorf("shared flag -%s not registered", want.name)
			continue
		}
		if got[0] != want.usage {
			t.Errorf("-%s help text drifted:\n got  %q\n want %q", want.name, got[0], want.usage)
		}
	}
	for name, f := range fiosim {
		b, ok := bench[name]
		if !ok {
			t.Fatalf("flag -%s present in one registration but not the other", name)
		}
		if f != b {
			t.Errorf("-%s differs between registrations: %v vs %v", name, f, b)
		}
	}
}

// TestBinariesUseSharedFlagSurface scans the two CLI mains and asserts they
// build their run wiring exclusively through this package: RegisterFlags +
// Validate are called, and none of the shared flag names is re-registered
// locally (which is how the help-text duplication crept in before).
func TestBinariesUseSharedFlagSurface(t *testing.T) {
	for _, rel := range []string{"../../cmd/fiosim/main.go", "../../cmd/bmstore-bench/main.go"} {
		src, err := os.ReadFile(filepath.Clean(rel))
		if err != nil {
			t.Fatalf("read %s: %v", rel, err)
		}
		text := string(src)
		if !strings.Contains(text, "RegisterFlags(flag.CommandLine)") {
			t.Errorf("%s: does not register the shared flag surface via cli.RunOptions.RegisterFlags", rel)
		}
		if !strings.Contains(text, ".Validate()") {
			t.Errorf("%s: does not validate the shared options via cli.RunOptions.Validate", rel)
		}
		for _, f := range sharedFlags {
			re := regexp.MustCompile(`flag\.(String|Bool|Int|Int64|Duration|Float64)(Var)?\(\s*&?\w*,?\s*"` + regexp.QuoteMeta(f.name) + `"`)
			if re.MatchString(text) {
				t.Errorf("%s: registers shared flag -%s locally instead of through internal/cli", rel, f.name)
			}
		}
	}
}

// TestClassicFlagIsGone: -classic selected the process-per-command data path,
// which no longer exists. The shared surface must not keep accepting (and
// ignoring) it: parsing it is the standard unknown-flag usage error, which
// the binaries' flag.ExitOnError turns into exit status 2.
func TestClassicFlagIsGone(t *testing.T) {
	var o RunOptions
	fs := flag.NewFlagSet("bin", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.RegisterFlags(fs)
	err := fs.Parse([]string{"-classic"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -classic") {
		t.Errorf("parsing -classic: got %v, want the unknown-flag error", err)
	}
}

// TestFaultsChaosConflict pins the explicit usage error: chaos campaigns
// generate their own fault schedules, so an also-supplied -faults spec must
// be rejected, not silently ignored (which is what fiosim used to do).
func TestFaultsChaosConflict(t *testing.T) {
	o := RunOptions{Chaos: "1,2", Faults: "ssd-stall,t=1ms,dur=1ms", SampleEvery: 64}
	err := o.Validate()
	if err == nil {
		t.Fatal("Validate accepted -chaos together with -faults")
	}
	if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("conflict error should say the flags are mutually exclusive, got: %v", err)
	}
	for _, ok := range []RunOptions{
		{Chaos: "1,2", SampleEvery: 64},
		{Faults: "ssd-stall,t=1ms,dur=1ms", SampleEvery: 64},
		{SampleEvery: 64},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) unexpectedly failed: %v", ok, err)
		}
	}
}

// TestBuildRigOptions exercises the Build -> RigOptions -> testbed chain:
// the composed options must arm tracing, metrics and faults on a real rig
// without any direct Config field writes.
func TestBuildRigOptions(t *testing.T) {
	o := RunOptions{
		TraceDigest: true,
		Metrics:     true,
		Faults:      "media-slow,nth=1,count=-1,dur=1ms",
		SampleEvery: 64,
		SlowestK:    4,
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := o.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Traces == nil || r.Metrics == nil || len(r.Rules) != 1 {
		t.Fatalf("Build wiring incomplete: traces=%v metrics=%v rules=%d", r.Traces, r.Metrics, len(r.Rules))
	}
	if dcfg := r.DriverConfig(); dcfg.MaxRetries == 0 {
		t.Error("faulted run should get the recovering driver config")
	}

	cfg := bmstore.DefaultConfig()
	tb, err := bmstore.NewBMStoreTestbed(cfg, r.RigOptions("rig0")...)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(func(p *sim.Proc) {})
	if tr := r.Tracer("rig0"); tr == nil || tr.Events() == 0 {
		t.Error("rig tracer recorded no events — WithTrace wiring broken")
	}
	if tb.Metrics() == nil {
		t.Error("rig has no metrics registry — WithMetrics wiring broken")
	}
	if tb.Env.Faults() == nil {
		t.Error("rig has no fault injector — WithFaults wiring broken")
	}
}
