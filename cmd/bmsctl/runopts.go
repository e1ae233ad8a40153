package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"bmstore/internal/experiments"
	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/trace"
)

// runOptions holds the run-option flags shared by the verbs that build rigs
// (fio, sweep, fleet-run): tracing, metrics, timelines, the fault schedule
// and the worker bound. register + Parse is the expected lifecycle; validate
// and build then check and materialise them.
type runOptions struct {
	trace       string
	traceDigest bool
	metrics     bool
	metricsOut  string
	breakdown   bool
	timeline    bool
	timelineOut string
	sampleEvery int
	slowestK    int
	parallel    int
	faults      string
	rules       []fault.Rule // -faults, parsed by validate
}

// register registers the shared run-option flags on fs, once per verb.
func (o *runOptions) register(fs *flag.FlagSet) {
	fs.StringVar(&o.trace, "trace", "", "write a human-readable event trace to this file (- for stderr)")
	fs.BoolVar(&o.traceDigest, "trace-digest", false, "compute and print determinism digests over the run's rigs")
	fs.BoolVar(&o.metrics, "metrics", false, "collect metrics and print the per-component summary")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the metrics snapshot to this file (.csv for CSV, otherwise JSON; - for stdout)")
	fs.BoolVar(&o.breakdown, "breakdown", false, "print the per-stage request latency breakdown table")
	fs.BoolVar(&o.timeline, "timeline", false, "record sampled request timelines + worst-K tail forensics and print the tail-attribution summary")
	fs.StringVar(&o.timelineOut, "timeline-out", "", "write recorded timelines as Chrome/Perfetto trace-event JSON to this file (- for stdout; implies recording)")
	fs.IntVar(&o.sampleEvery, "sample", 64, "timeline sampling rate: keep every Nth request (with -timeline)")
	fs.IntVar(&o.slowestK, "slowest", 16, "retain the K slowest requests' complete timelines (with -timeline)")
	registerParallel(fs, &o.parallel)
	fs.StringVar(&o.faults, "faults", "", "fault-injection spec, e.g. 'ssd-stall,t=20ms,dur=10ms;media-slow,nth=100,count=-1,dur=2ms' (enables driver timeout/retry recovery)")
}

// registerParallel registers the worker bound alone, for the verbs whose
// runs take no other shared option (chaos, crash-sweep).
func registerParallel(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "parallel", runtime.GOMAXPROCS(0), "max concurrent rigs (1 = serial)")
}

// validate parses the -faults spec and checks the worker bound and the
// -timeline knobs; an error is a usage error (exit 2).
func (o *runOptions) validate() (err error) {
	if err := atLeastOne("parallel", o.parallel); err != nil {
		return err
	}
	if o.faults != "" {
		if o.rules, err = fault.ParseSpec(o.faults); err != nil {
			return err
		}
	}
	if o.sampleEvery < 1 {
		return fmt.Errorf("-sample must be >= 1, got %d", o.sampleEvery)
	}
	if o.slowestK < 0 {
		return fmt.Errorf("-slowest must be >= 0, got %d", o.slowestK)
	}
	return nil
}

// timelineOn reports whether timeline recording is requested (explicitly or
// implied by -timeline-out).
func (o *runOptions) timelineOn() bool { return o.timeline || o.timelineOut != "" }

// wiring is the materialised shared wiring of one invocation: the per-rig
// trace and metrics families and the opened trace-dump destination. build
// creates it; close releases the dump file.
type wiring struct {
	opts    *runOptions
	traces  *trace.Set // nil when tracing is off
	metrics *obs.Set   // nil when metrics/timelines are off
	dump    *os.File   // the -trace destination, nil when off
}

// build materialises the validated options: opens the trace dump
// destination ("-" is stderr, so stdout stays deterministic and diffable)
// and constructs the trace/metrics families. Errors are environmental (an
// uncreatable file).
func (o *runOptions) build() (*wiring, error) {
	r := &wiring{opts: o}
	if o.trace != "" {
		if o.trace == "-" {
			r.dump = os.Stderr
		} else {
			f, err := os.Create(o.trace)
			if err != nil {
				return nil, err
			}
			r.dump = f
		}
	}
	if r.dump != nil || o.traceDigest {
		var topts trace.Options
		if r.dump != nil {
			topts.Dump = r.dump // destination flag; rigs buffer privately
		}
		r.traces = trace.NewSet(topts)
	}
	if o.metrics || o.metricsOut != "" || o.breakdown || o.timelineOn() {
		mopts := obs.Options{SeriesInterval: obs.DefaultSeriesInterval}
		if o.timelineOn() {
			mopts.Timeline = timeline.Config{SampleEvery: o.sampleEvery, WorstK: o.slowestK}
		}
		r.metrics = obs.NewSet(mopts)
	}
	return r, nil
}

// close releases the trace dump file, if build opened one.
func (r *wiring) close() error {
	if r.dump != nil && r.dump != os.Stderr {
		return r.dump.Close()
	}
	return nil
}

// harness returns the experiments harness carrying the invocation's wiring:
// each rig's child tracer and metrics registry, the fault schedule and the
// worker bound. Its Options are the only way a verb attaches observability
// to a testbed. fio passes a zero Scale: it runs its own spec.
func (r *wiring) harness(sc experiments.Scale) *experiments.Harness {
	return experiments.NewHarness(sc, r.opts.parallel, r.traces).
		WithMetrics(r.metrics).
		WithFaults(r.opts.rules)
}

// driverConfig returns the tenant driver configuration matching the run:
// the default fail-fast driver, or — when faults are armed — the fleet's
// recovering one (command timeout, abort, bounded retry), so transient
// injected faults are absorbed instead of killing the workload.
func (r *wiring) driverConfig() host.DriverConfig {
	if len(r.opts.rules) > 0 {
		return experiments.FleetFaultDriver
	}
	return host.DefaultDriverConfig()
}

// finish drains the shared sinks after a run, in one order for every verb:
// the buffered trace dumps, the latency breakdown and metrics summary
// (stdout), the -metrics-out file, the timeline summary (to timelineTo) and
// the -timeline-out file. sep is printed ahead of each summary. The sweep
// sends its timeline summary to stderr, because its stdout must stay equal
// to the committed bench_tables.txt whether or not -timeline is on.
func (r *wiring) finish(sep string, timelineTo io.Writer) error {
	if r.dump != nil {
		if err := r.traces.Flush(r.dump); err != nil {
			return err
		}
	}
	if r.opts.breakdown {
		fmt.Print(sep)
		if err := r.metrics.WriteBreakdown(os.Stdout); err != nil {
			return err
		}
	}
	if r.opts.metrics {
		fmt.Print(sep)
		if err := r.metrics.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	if out := r.opts.metricsOut; out != "" {
		if err := writeTo(out, func(w io.Writer) error {
			if strings.HasSuffix(out, ".csv") {
				return r.metrics.WriteCSV(w)
			}
			return r.metrics.WriteJSON(w)
		}); err != nil {
			return err
		}
	}
	if r.opts.timeline {
		fmt.Fprint(timelineTo, sep)
		if err := timeline.WriteSummary(timelineTo, r.metrics.TimelineDumps()); err != nil {
			return err
		}
	}
	// Load the Perfetto export in ui.perfetto.dev, or inspect it offline
	// with `bmsctl timeline <file>`.
	if r.opts.timelineOut != "" {
		return writeTo(r.opts.timelineOut, r.metrics.WriteTimeline)
	}
	return nil
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
