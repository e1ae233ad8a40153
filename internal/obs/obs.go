// Package obs is the simulation-time observability layer: a per-rig metrics
// registry holding named counters, gauges and latency histograms per
// component instance, request-lifecycle spans folded into per-stage latency
// histograms (the paper's "where does each microsecond go" breakdown), and
// fixed-interval virtual-time series for queue depth and bandwidth plots.
//
// A request in flight is one record, a Span, under the vocabulary of
// internal/obs/timeline (points, waits, the stage table): the breakdown folds
// it and the timeline recorder copies it, so the two cannot disagree. A
// component finds the record once per command, by the command's NVMe
// identity, and records through the handle (span.go).
//
// Three rules keep the layer deterministic and honest:
//
//   - Virtual time only. Every instrument takes explicit int64 nanosecond
//     timestamps from the simulation clock; nothing in this package reads
//     the wall clock, so exported snapshots are pure functions of the seed.
//
//   - Passive observation only. The registry never schedules events,
//     spawns processes or sleeps: samplers are time-weighted accumulators
//     updated at the observation points the model already passes through.
//     Enabling metrics therefore cannot perturb the event stream, which is
//     what keeps trace digests identical with and without metrics.
//
//   - Nil means free. Every method on every type is safe on a nil
//     receiver and does nothing, as does trace.Tracer.Emit: components cache
//     instrument pointers at construction and a rig built without a
//     registry pays one nil check per observation point.
//
//   - Each count is kept once. A plain count is a field of the component
//     that owns it, incremented whether or not a registry is attached; the
//     component registers a read of it at construction (CounterOf), and the
//     registry reads it at export. The field lives in a small block the
//     component allocates apart from itself, and the read captures only
//     that block: a registry outlives its rig in a Set, and must keep the
//     counts, not the rig. Only rate counters, which carry a time series,
//     are pushed into the registry (AddAt).
//
// The package depends only on internal/stats, the CID table of internal/nvme
// (which imports nothing of the simulator) and the standard library —
// timestamps travel as plain int64 — so the sim kernel can hold a *Registry
// without an import cycle.
package obs

import (
	"sort"
	"strconv"

	"bmstore/internal/obs/timeline"
	"bmstore/internal/stats"
)

// Options configures a Registry.
type Options struct {
	// SeriesInterval is the virtual-time bin width, in nanoseconds, of the
	// fixed-interval series kept by gauges and rate counters. Zero or
	// negative disables series (scalar values and peaks are still kept).
	SeriesInterval int64

	// Timeline configures sampled request timelines and worst-K tail
	// forensics (see internal/obs/timeline). The zero value disables
	// timeline recording; span instrumentation alone stays on.
	Timeline timeline.Config
}

// DefaultSeriesInterval is the bin width New uses: 1 ms of virtual time,
// fine enough for the paper's IOPS/bandwidth-over-time plots.
const DefaultSeriesInterval = 1_000_000

// Registry is the per-rig metrics root. One Registry belongs to exactly one
// simulation environment and is not safe for concurrent use — the kernel's
// run-to-completion handoff guarantees single-threaded access, the same
// contract as trace.Tracer.
type Registry struct {
	opts    Options
	comps   map[string]*Component
	instSeq map[string]int
	spans   spanTable
	tl      *timeline.Recorder
}

// New returns a registry with the given options.
func New(opts Options) *Registry {
	r := &Registry{
		opts:    opts,
		comps:   make(map[string]*Component),
		instSeq: make(map[string]int),
		tl:      timeline.NewRecorder(opts.Timeline),
	}
	return r
}

// NewRegistry returns a registry with the default 1 ms series interval.
func NewRegistry() *Registry { return New(Options{SeriesInterval: DefaultSeriesInterval}) }

// Timeline returns the registry's timeline recorder, nil when timeline
// recording is disabled (nil is the free recorder: every method no-ops).
func (r *Registry) Timeline() *timeline.Recorder {
	if r == nil {
		return nil
	}
	return r.tl
}

// Component returns the named component, creating it on first use. Nil-safe:
// a nil registry returns a nil component, whose instrument getters in turn
// return nil instruments — the whole chain degrades to no-ops.
func (r *Registry) Component(name string) *Component {
	if r == nil {
		return nil
	}
	if c, ok := r.comps[name]; ok {
		return c
	}
	c := &Component{r: r, name: name}
	r.comps[name] = c
	return c
}

// Instance returns a fresh component named prefix plus a per-prefix index
// assigned in creation order ("host/driver0", "host/driver1", ...).
// Creation order inside one environment is deterministic, so instance names
// are stable across runs.
func (r *Registry) Instance(prefix string) *Component {
	if r == nil {
		return nil
	}
	i := r.instSeq[prefix]
	r.instSeq[prefix] = i + 1
	return r.Component(prefix + strconv.Itoa(i))
}

// componentNames returns registered component names in sorted order.
func (r *Registry) componentNames() []string {
	names := make([]string, 0, len(r.comps))
	for name := range r.comps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Component is one instrumented entity: a driver, an engine backend, an
// SSD, a PCIe link. Instruments are registered by name on first use and
// iterate in sorted-name order at export time.
type Component struct {
	r        *Registry
	name     string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// Counter returns the named counter, creating it on first use.
func (c *Component) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	if ctr, ok := c.counters[name]; ok {
		return ctr
	}
	if c.counters == nil {
		c.counters = make(map[string]*Counter)
	}
	ctr := &Counter{}
	c.counters[name] = ctr
	return ctr
}

// CounterOf registers the named counter as a count its component keeps in
// its own field: read is called at export, never on the model's path. A
// name registered again (a second instance under the same component name)
// reads the sum of every registered count, as one shared counter would.
func (c *Component) CounterOf(name string, read func() uint64) {
	if ctr := c.Counter(name); ctr != nil {
		ctr.reads = append(ctr.reads, read)
	}
}

// RateCounter returns the named counter with a fixed-interval series
// attached (when the registry has one configured), so AddAt calls feed a
// per-bin rate usable for bandwidth/IOPS-over-time plots.
func (c *Component) RateCounter(name string) *Counter {
	ctr := c.Counter(name)
	if ctr != nil && ctr.series == nil && c.r.opts.SeriesInterval > 0 {
		ctr.series = stats.NewSeries(c.r.opts.SeriesInterval)
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Gauges keep a
// time-weighted mean series when the registry has an interval configured.
func (c *Component) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	if g, ok := c.gauges[name]; ok {
		return g
	}
	if c.gauges == nil {
		c.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{interval: c.r.opts.SeriesInterval}
	c.gauges[name] = g
	return g
}

// Hist returns the named histogram, creating it on first use.
func (c *Component) Hist(name string) *Hist {
	if c == nil {
		return nil
	}
	if h, ok := c.hists[name]; ok {
		return h
	}
	if c.hists == nil {
		c.hists = make(map[string]*Hist)
	}
	h := &Hist{}
	c.hists[name] = h
	return h
}

// Counter is a monotonically increasing event count: the counts its
// components registered (Component.CounterOf) plus what AddAt pushed, with
// a fixed-interval series of the pushes (see Component.RateCounter).
type Counter struct {
	v      uint64
	reads  []func() uint64
	series *stats.Series
}

// AddAt adds n and accounts it to the series bin containing virtual time t.
func (c *Counter) AddAt(t int64, n uint64) {
	if c == nil {
		return
	}
	c.v += n
	if c.series != nil {
		c.series.Add(t, float64(n))
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v
	for _, read := range c.reads {
		v += read()
	}
	return v
}

// Gauge is an instantaneous level (queue depth, in-flight I/Os). Between
// updates the value is integrated over virtual time, so the exported series
// holds the true time-weighted mean per bin — a passive sampler needing no
// scheduled events.
type Gauge struct {
	v        int64
	peak     int64
	interval int64
	lastT    int64
	sums     []float64 // per-bin integral of v dt, in value-nanoseconds
	// bin is the bin lastT lies in while lastT < binEnd, its end: an
	// advance that stays inside it compares instead of dividing.
	bin, binEnd int64
}

// Set moves the gauge to v at virtual time t. Updates must arrive in
// non-decreasing time order, which the single-threaded environment gives
// for free.
func (g *Gauge) Set(t, v int64) {
	if g == nil {
		return
	}
	g.advance(t)
	g.v = v
	if v > g.peak {
		g.peak = v
	}
}

// Inc raises the gauge by one at virtual time t.
func (g *Gauge) Inc(t int64) {
	if g == nil {
		return
	}
	g.Set(t, g.v+1)
}

// Dec lowers the gauge by one at virtual time t.
func (g *Gauge) Dec(t int64) {
	if g == nil {
		return
	}
	g.Set(t, g.v-1)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// advance integrates the current value over [lastT, t) into the per-bin
// sums.
func (g *Gauge) advance(t int64) {
	if g.interval <= 0 || t <= g.lastT {
		if t < g.lastT {
			g.binEnd = 0 // lastT moves back, out of the bin it knew
		}
		g.lastT = t
		return
	}
	if t < g.binEnd {
		g.sums[g.bin] += float64(g.v) * float64(t-g.lastT)
		g.lastT = t
		return
	}
	for g.lastT < t {
		bin := g.lastT / g.interval
		binEnd := (bin + 1) * g.interval
		seg := t - g.lastT
		if binEnd-g.lastT < seg {
			seg = binEnd - g.lastT
		}
		for int64(len(g.sums)) <= bin {
			g.sums = append(g.sums, 0)
		}
		g.sums[bin] += float64(g.v) * float64(seg)
		g.lastT += seg
		g.bin, g.binEnd = bin, binEnd
	}
}

// meanBins returns the time-weighted mean level per bin, closing the
// integral at virtual time now.
func (g *Gauge) meanBins(now int64) []float64 {
	if g.interval <= 0 {
		return nil
	}
	g.advance(now)
	out := make([]float64, len(g.sums))
	for i, s := range g.sums {
		out[i] = s / float64(g.interval)
	}
	return out
}

// Hist is a latency histogram instrument over nanosecond samples.
type Hist struct {
	h stats.Hist
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	h.h.Record(v)
}
