package bmstore

import (
	"bmstore/internal/crash"
	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/trace"
)

// Option composes observability and fault wiring onto a Config at testbed
// construction: NewBMStoreTestbed(cfg, WithTrace(tr), WithFaults(rules...)).
// Options are the only way to attach a tracer, a metrics registry or a fault
// schedule. They apply in order, so a later option can override an earlier
// one.
type Option func(*Config)

// With returns a copy of the configuration with opts applied. The
// constructors call it on their variadic options; sweep drivers that build
// one Config template per rig family can also apply per-rig options up
// front and pass the result around as a plain value.
func (c Config) With(opts ...Option) Config {
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithTrace attaches a determinism tracer to the rig: the scheduler and
// every instrumented subsystem stream their events into it, yielding a run
// digest (and optionally a human-readable dump). One tracer per rig — for
// sweeps, hand out children of a trace.Set.
func WithTrace(tr *trace.Tracer) Option {
	return func(c *Config) { c.tracer = tr }
}

// WithMetrics attaches a metrics registry to the rig: every instrumented
// subsystem registers its counters, gauges, latency histograms and request
// spans there (see internal/obs). Metrics are passive observers — attaching
// a registry never changes simulated behaviour or trace digests. One
// registry per rig — for sweeps, hand out children of an obs.Set.
func WithMetrics(r *obs.Registry) Option {
	return func(c *Config) { c.metrics = r }
}

// WithFaults arms declarative fault rules on the rig (see internal/fault).
// Multiple WithFaults options compose: each appends to the schedule. Rules
// are plain values — the same slice can seed any number of rigs, each of
// which builds its own injector state.
func WithFaults(rules ...fault.Rule) Option {
	return func(c *Config) { c.faults = append(c.faults[:len(c.faults):len(c.faults)], rules...) }
}

// WithTimeline enables sampled request-timeline recording and worst-K tail
// forensics (see internal/obs/timeline). When the rig has no metrics
// registry, one is built carrying the recorder — reach it afterwards via
// Testbed.Metrics(). Combining WithTimeline with WithMetrics requires the
// supplied registry to have been built with timeline recording itself
// (obs.Options.Timeline); Validate rejects the silent-no-op combination.
func WithTimeline(tc timeline.Config) Option {
	return func(c *Config) { c.Timeline = tc }
}

// WithCrashRecovery arms the crash-recovery subsystem on a BM-Store rig: a
// crash.Manager is built around the engine (checkpoint on control-plane
// changes, intent journal of acked writes, recovery after engine-crash
// fault points) and reachable afterwards via Testbed.Crash. Requires
// CaptureData — the journal's ground truth is the payload bytes on the
// media, so a content-free rig has nothing to journal or verify; Validate
// rejects the combination.
func WithCrashRecovery(cc crash.Config) Option {
	return func(c *Config) { c.CrashRecovery = &cc }
}

// WithClassicPath has no effect: there is one data path, and the
// process-per-command code this option used to select is gone.
//
// Deprecated: it is kept only so the frozen benchmark (bench/probes.go, the
// engine.classic_path_ratio probe) still builds, and is to be deleted
// together with that probe by the next benchmark PR. Nothing else may call it.
func WithClassicPath() Option {
	return func(*Config) {}
}
