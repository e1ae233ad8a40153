// Package cli is the single home of the run-options surface shared by the
// simulator's binaries. fiosim, bmstore-bench and the fleet entrypoint all
// expose the same observability and fault-injection flags — tracing,
// metrics, timelines, fault specs, chaos campaigns and the worker bound —
// and before this package each binary carried its own near-duplicate flag
// block and wiring. RunOptions registers the
// flags once (identical names, defaults and help text everywhere — a parity
// test pins this), validates the combinations that used to fail silently,
// and Build turns them into a Run: the trace/metrics families plus per-rig
// bmstore.Option slices, so no binary writes the deprecated Config
// observability fields directly.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"bmstore"
	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// RunOptions holds the shared flag values. Zero value + RegisterFlags +
// flag.Parse is the expected lifecycle; Validate and Build then check and
// materialise them.
type RunOptions struct {
	Trace       string
	TraceDigest bool
	TraceSHA256 bool // registered separately; not part of the shared set
	Metrics     bool
	MetricsOut  string
	Breakdown   bool
	Timeline    bool
	TimelineOut string
	SampleEvery int
	SlowestK    int
	Parallel    int
	Faults      string
	Chaos       string
}

// sharedFlag is one entry of the shared surface; the parity test walks this
// table and asserts both binaries registered exactly it.
type sharedFlag struct {
	name, usage string
}

// sharedFlags is the canonical shared set, in registration order. Changing
// a name or help string here changes every binary at once — which is the
// point.
var sharedFlags = []sharedFlag{
	{"trace", "write a human-readable event trace to this file (- for stderr)"},
	{"trace-digest", "compute and print determinism digests over the run's rigs"},
	{"metrics", "collect metrics and print the per-component summary"},
	{"metrics-out", "write the metrics snapshot to this file (.csv for CSV, otherwise JSON; - for stdout)"},
	{"breakdown", "print the per-stage request latency breakdown table"},
	{"timeline", "record sampled request timelines + worst-K tail forensics and print the tail-attribution summary"},
	{"timeline-out", "write recorded timelines as Chrome/Perfetto trace-event JSON to this file (- for stdout; implies recording)"},
	{"sample", "timeline sampling rate: keep every Nth request (with -timeline)"},
	{"slowest", "retain the K slowest requests' complete timelines (with -timeline)"},
	{"parallel", "max concurrent rigs (1 = serial)"},
	{"faults", "fault-injection spec, e.g. 'ssd-stall,t=20ms,dur=10ms;media-slow,nth=100,count=-1,dur=2ms' (enables driver timeout/retry recovery)"},
	{"chaos", "run a chaos campaign instead of the workload: 'seed,count' (e.g. '1,20'; count defaults to 1) — seeded fault schedules under a write-then-verify workload, exit 1 on any invariant violation"},
}

// usageOf returns the canonical help text of a shared flag; it panics on an
// unknown name so the table and the registrations cannot drift apart.
func usageOf(name string) string {
	for _, f := range sharedFlags {
		if f.name == name {
			return f.usage
		}
	}
	panic("cli: flag " + name + " missing from sharedFlags")
}

// RegisterFlags registers the shared run-option flags on fs. Every binary
// that runs rigs calls this exactly once, before flag.Parse.
func (o *RunOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", usageOf("trace"))
	fs.BoolVar(&o.TraceDigest, "trace-digest", false, usageOf("trace-digest"))
	fs.BoolVar(&o.Metrics, "metrics", false, usageOf("metrics"))
	fs.StringVar(&o.MetricsOut, "metrics-out", "", usageOf("metrics-out"))
	fs.BoolVar(&o.Breakdown, "breakdown", false, usageOf("breakdown"))
	fs.BoolVar(&o.Timeline, "timeline", false, usageOf("timeline"))
	fs.StringVar(&o.TimelineOut, "timeline-out", "", usageOf("timeline-out"))
	fs.IntVar(&o.SampleEvery, "sample", 64, usageOf("sample"))
	fs.IntVar(&o.SlowestK, "slowest", 16, usageOf("slowest"))
	fs.IntVar(&o.Parallel, "parallel", runtime.GOMAXPROCS(0), usageOf("parallel"))
	fs.StringVar(&o.Faults, "faults", "", usageOf("faults"))
	fs.StringVar(&o.Chaos, "chaos", "", usageOf("chaos"))
}

// RegisterTraceSHA256 registers fiosim's extra -trace-sha256 switch. It is
// deliberately outside the shared set: the fast 64-bit digest is the
// default everywhere, and only the single-workload binary exposes the
// slower cryptographic variant.
func (o *RunOptions) RegisterTraceSHA256(fs *flag.FlagSet) {
	fs.BoolVar(&o.TraceSHA256, "trace-sha256", false, "use SHA-256 for the digest instead of the fast 64-bit digest")
}

// Validate checks flag combinations. It returns usage errors (callers exit
// 2): today that is the -faults/-chaos conflict — a chaos campaign
// generates its own fault schedules, so an also-supplied -faults spec used
// to be ignored silently — and the -timeline knob sanity checks.
func (o *RunOptions) Validate() error {
	if o.Chaos != "" && o.Faults != "" {
		return fmt.Errorf("-chaos and -faults are mutually exclusive: a chaos campaign generates its own seeded fault schedules, so the -faults spec would be ignored — drop one of the two")
	}
	if o.SampleEvery < 1 {
		return fmt.Errorf("-sample must be >= 1, got %d", o.SampleEvery)
	}
	if o.SlowestK < 0 {
		return fmt.Errorf("-slowest must be >= 0, got %d", o.SlowestK)
	}
	return nil
}

// TimelineOn reports whether timeline recording is requested (explicitly or
// implied by -timeline-out).
func (o *RunOptions) TimelineOn() bool { return o.Timeline || o.TimelineOut != "" }

// Run is the materialised shared wiring of one invocation: the per-rig
// trace and metrics families, the parsed fault schedule, and the opened
// trace-dump destination. Build creates it; Close releases the dump file.
type Run struct {
	Opts    *RunOptions
	Traces  *trace.Set // nil when tracing is off
	Metrics *obs.Set   // nil when metrics/timelines are off
	Rules   []fault.Rule

	dump      *os.File
	dumpOwned bool // false when dump is os.Stderr/os.Stdout
}

// Build materialises the options: parses the fault spec, opens the trace
// dump destination ("-" is stderr, so stdout stays deterministic and
// diffable), and constructs the trace/metrics families. Errors are
// environmental (unparseable spec, uncreatable file); callers exit nonzero.
func (o *RunOptions) Build() (*Run, error) {
	r := &Run{Opts: o}
	if o.Faults != "" {
		rules, err := fault.ParseSpec(o.Faults)
		if err != nil {
			return nil, err
		}
		r.Rules = rules
	}
	if o.Trace != "" {
		if o.Trace == "-" {
			r.dump = os.Stderr
		} else {
			f, err := os.Create(o.Trace)
			if err != nil {
				return nil, err
			}
			r.dump, r.dumpOwned = f, true
		}
	}
	if r.dump != nil || o.TraceDigest || o.TraceSHA256 {
		topts := trace.Options{SHA256: o.TraceSHA256}
		if r.dump != nil {
			topts.Dump = r.dump // destination flag; rigs buffer privately
		}
		r.Traces = trace.NewSet(topts)
	}
	if o.Metrics || o.MetricsOut != "" || o.Breakdown || o.TimelineOn() {
		mopts := obs.Options{SeriesInterval: obs.DefaultSeriesInterval}
		if o.TimelineOn() {
			mopts.Timeline = timeline.Config{SampleEvery: o.SampleEvery, WorstK: o.SlowestK}
		}
		r.Metrics = obs.NewSet(mopts)
	}
	return r, nil
}

// Close releases the trace dump file, if Build opened one.
func (r *Run) Close() error {
	if r.dumpOwned && r.dump != nil {
		return r.dump.Close()
	}
	return nil
}

// RigOptions returns the bmstore.Option slice wiring one named rig: its
// child tracer and metrics registry and the fault schedule. This is the only
// way the binaries attach observability to a testbed — none of them touches
// the deprecated Config fields.
func (r *Run) RigOptions(rig string) []bmstore.Option {
	var opts []bmstore.Option
	if r.Traces != nil {
		opts = append(opts, bmstore.WithTrace(r.Traces.Tracer(rig)))
	}
	if r.Metrics != nil {
		opts = append(opts, bmstore.WithMetrics(r.Metrics.Registry(rig)))
	}
	if len(r.Rules) > 0 {
		opts = append(opts, bmstore.WithFaults(r.Rules...))
	}
	return opts
}

// Tracer returns the named rig's child tracer, or nil when tracing is off.
// trace.Set hands back the same child for the same name, so this is the
// post-run lookup for per-rig digests.
func (r *Run) Tracer(rig string) *trace.Tracer {
	if r.Traces == nil {
		return nil
	}
	return r.Traces.Tracer(rig)
}

// DriverConfig returns the tenant driver configuration matching the run:
// the default fail-fast driver, or — when faults are armed — one with the
// recovery machinery (command timeout, abort, bounded retry) enabled, so
// transient injected faults are absorbed instead of killing the workload.
func (r *Run) DriverConfig() host.DriverConfig {
	dcfg := host.DefaultDriverConfig()
	if len(r.Rules) > 0 {
		dcfg.CmdTimeout = 5 * sim.Millisecond
		dcfg.MaxRetries = 8
		dcfg.RetryBackoff = 200 * sim.Microsecond
	}
	return dcfg
}

// FlushTrace flushes the buffered per-rig trace dumps to the destination
// opened by Build. No-op when no dump was requested.
func (r *Run) FlushTrace() error {
	if r.Traces == nil || r.dump == nil {
		return nil
	}
	return r.Traces.Flush(r.dump)
}

// WriteMetricsOut exports the metrics snapshot to the -metrics-out path:
// CSV when the name ends in .csv, pretty-printed JSON otherwise, stdout for
// "-". No-op when the flag is unset.
func (r *Run) WriteMetricsOut() error {
	if r.Opts.MetricsOut == "" {
		return nil
	}
	return writeTo(r.Opts.MetricsOut, func(w io.Writer) error {
		if strings.HasSuffix(r.Opts.MetricsOut, ".csv") {
			return r.Metrics.WriteCSV(w)
		}
		return r.Metrics.WriteJSON(w)
	})
}

// WriteTimelineOut exports the recorded timelines as Chrome/Perfetto
// trace-event JSON to the -timeline-out path, stdout for "-". Load the file
// in ui.perfetto.dev or chrome://tracing, or inspect it offline with
// `bmsctl timeline <file>`. No-op when the flag is unset.
func (r *Run) WriteTimelineOut() error {
	if r.Opts.TimelineOut == "" {
		return nil
	}
	return writeTo(r.Opts.TimelineOut, func(w io.Writer) error {
		return r.Metrics.WriteTimeline(w)
	})
}

// WriteTimelineSummary prints the tail-attribution summary of the recorded
// timelines to w.
func (r *Run) WriteTimelineSummary(w io.Writer) error {
	return timeline.WriteSummary(w, r.Metrics.TimelineDumps())
}

// writeTo runs fn against path ("-" = stdout), closing files on the way
// out.
func writeTo(path string, fn func(io.Writer) error) error {
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

// RunChaos parses the -chaos spec ("seed,count") and executes the chaos
// campaign: count seeded fault schedules (seed, seed+1, …), each on a fresh
// rig under the write-then-verify workload, with the invariant checker's
// verdict per run. The deterministic report goes to stdout, timing to
// stderr; a failing seed's report line comes with the exact replay
// invocation. The returned code is the process exit status: 0 green, 1
// invariant violation, 2 unparseable spec.
func RunChaos(spec string, parallel int, stdout, stderr io.Writer, wallSecs func() float64) int {
	parts := strings.Split(spec, ",")
	if len(parts) > 2 {
		fmt.Fprintf(stderr, "-chaos wants 'seed,count', got %q\n", spec)
		return 2
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "-chaos seed %q: %v\n", parts[0], err)
		return 2
	}
	count := 1
	if len(parts) == 2 {
		if count, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil || count < 1 {
			fmt.Fprintf(stderr, "-chaos count %q must be a positive integer\n", parts[1])
			return 2
		}
	}
	c := bmstore.RunChaosCampaign(bmstore.ChaosOptions{
		Seed: seed, Runs: count, Parallel: parallel,
	})
	c.WriteReport(stdout)
	if wallSecs != nil {
		fmt.Fprintf(stderr, "(%d chaos runs in %.1fs wall, parallel=%d)\n",
			count, wallSecs(), parallel)
	}
	if !c.OK() {
		return 1
	}
	return 0
}
