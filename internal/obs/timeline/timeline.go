// Package timeline is the vocabulary of a request's lifecycle — its points,
// its wait buckets, the stage table that partitions it — and the recorder
// that keeps sampled request timelines and worst-K tail forensics for the
// always-on telemetry layer.
//
// A request in flight is one record (obs.Span), and its instants, waits and
// queue depth live in the Rec inside it, under the names declared here: the
// breakdown table, the Perfetto trace and the crash sweep all read the same
// points. A Recorder decides at a request's start whether its timeline is
// wanted — a deterministic 1-in-N sample, plus every request while worst-K
// tracking is armed — and at its finish copies the Rec of a request worth
// keeping: every stage timestamp from driver entry through doorbell, engine
// dispatch, NAND and DMA phases, CQE reap and return, the queue depth at the
// doorbell, and a per-resource wait attribution (host queue slot, QoS
// admission, backend queue, NAND die).
//
// The package follows the obs layer's rules: virtual time only (timestamps
// travel as plain int64 nanoseconds), passive observation only (nothing here
// schedules events or reads the wall clock), and nil means free (every
// method is safe on a nil receiver). It deliberately depends on the standard
// library alone so the obs registry — which the sim kernel holds — can embed
// a Recorder without an import cycle.
//
// Allocation discipline: the recorder allocates only for a timeline it
// retains, and retained worst-K copies are recycled as they are evicted, so a
// request that is neither sampled nor among the slowest costs the recorder a
// counter and a comparison — the property the bench gate pins at 0 allocs/op.
package timeline

import "sort"

// Point identifies one lifecycle timestamp of a request, in path order: the
// one enumeration the host driver, the engine and the SSD mark, the breakdown
// folds and the crash sweep derives its crash instants from (it walks the
// values in order, so they are append-only). The NAND/DMA points bound the
// device-phase intervals the SSD attributes through the span's device-domain
// alias.
type Point uint8

// Timeline points.
const (
	PtStart       Point = iota // host driver accepted the I/O
	PtDoorbell                 // SQ tail doorbell rung
	PtDispatch                 // engine front end picked the SQE up
	PtMapped                   // LBA mapping + QoS admission + PRP rewrite done
	PtNandStart                // device media phase start
	PtNandEnd                  // device media phase end
	PtDmaStart                 // payload transfer start (device side)
	PtDmaEnd                   // payload transfer end (device side)
	PtBackendDone              // last backend sub-completion joined
	PtCQE                      // host reaped the CQE (MSI-X path)
	PtFinish                   // driver returned to the caller
	NumPoints
)

// String returns the point's label.
func (p Point) String() string {
	switch p {
	case PtStart:
		return "start"
	case PtDoorbell:
		return "doorbell"
	case PtDispatch:
		return "dispatch"
	case PtMapped:
		return "mapped"
	case PtNandStart:
		return "nand-start"
	case PtNandEnd:
		return "nand-end"
	case PtDmaStart:
		return "dma-start"
	case PtDmaEnd:
		return "dma-end"
	case PtBackendDone:
		return "backend-done"
	case PtCQE:
		return "cqe"
	case PtFinish:
		return "finish"
	}
	return "?"
}

// Wait identifies one resource-wait bucket of a request's wait attribution.
type Wait uint8

// Wait buckets.
const (
	WaitHostQ   Wait = iota // host driver submission-queue slot
	WaitQoS                 // namespace QoS admission (command buffer park)
	WaitBackend             // backend quiesce gate + backend SQ slot
	WaitDie                 // NAND die acquisition (max across parallel stripes)
	NumWaits
)

// String returns the wait bucket's label.
func (w Wait) String() string {
	switch w {
	case WaitHostQ:
		return "host-q"
	case WaitQoS:
		return "qos"
	case WaitBackend:
		return "backend-q"
	case WaitDie:
		return "die"
	}
	return "?"
}

// Rec is one request's timeline: a fixed-size record, the body of a span in
// flight (obs.Span) and, copied at its finish, a retained sample. TS entries
// are valid only where the matching Has bit is set.
type Rec struct {
	Seq   uint64 // request ordinal within the rig (1-based, every request counted)
	Write bool
	QD    int64 // in-flight I/Os on the driver when this one rang the doorbell
	set   uint16
	TS    [NumPoints]int64
	Waits [NumWaits]int64

	sampled bool
}

// Mark records one timeline point at virtual time t.
func (r *Rec) Mark(p Point, t int64) {
	r.TS[p] = t
	r.set |= 1 << p
}

// Has reports whether the point was recorded.
func (r *Rec) Has(p Point) bool { return r.set&(1<<p) != 0 }

// AddWait attributes d nanoseconds of waiting to bucket w. Sequential waits
// (host queue, QoS, backend) accumulate; die waits happen on parallel
// stripes, so that bucket keeps the maximum — the stripe that gated the
// media phase.
func (r *Rec) AddWait(w Wait, d int64) {
	if d <= 0 {
		return
	}
	if w == WaitDie {
		if d > r.Waits[w] {
			r.Waits[w] = d
		}
		return
	}
	r.Waits[w] += d
}

// E2E returns the end-to-end latency (finish minus start).
func (r *Rec) E2E() int64 { return r.TS[PtFinish] - r.TS[PtStart] }

// Comp identifies which component's track a stage belongs to.
type Comp uint8

// Track components.
const (
	CompHost Comp = iota
	CompEngine
	CompDevice
	NumComps
)

// String returns the component's track label.
func (c Comp) String() string {
	switch c {
	case CompHost:
		return "host"
	case CompEngine:
		return "engine"
	case CompDevice:
		return "device"
	}
	return "?"
}

// StageDef declares one stage of a request's lifetime.
type StageDef struct {
	Name     string
	Comp     Comp
	From, To Point
	Sub      bool // sub-interval (nand/dma): inside backend or device, not a partition member
}

// StageTable is the one declaration of the stages, in path order; the
// breakdown's stage names and fold (obs.Stage), Rec.Stages and the trace
// reader all derive from it. The partition rows (Sub unset) are the edges of
// a path from PtStart to PtFinish: a request through the BMS-Engine walks
// submit, frontend, map+qos, backend, complete, reap; a direct-attached one
// has no dispatch point and walks submit, device, reap.
var StageTable = [...]StageDef{
	{Name: "submit", Comp: CompHost, From: PtStart, To: PtDoorbell},        // kernel submit path
	{Name: "frontend", Comp: CompEngine, From: PtDoorbell, To: PtDispatch}, // wire + SQE fetch
	{Name: "map+qos", Comp: CompEngine, From: PtDispatch, To: PtMapped},    // mapping, QoS, PRP rewrite
	{Name: "backend", Comp: CompEngine, From: PtMapped, To: PtBackendDone}, // forward + SSD + join
	{Name: "complete", Comp: CompEngine, From: PtBackendDone, To: PtCQE},   // CQE writeback + MSI
	{Name: "device", Comp: CompDevice, From: PtDoorbell, To: PtCQE},        // all of the above, direct-attached
	{Name: "nand", Comp: CompDevice, From: PtNandStart, To: PtNandEnd, Sub: true},
	{Name: "dma", Comp: CompDevice, From: PtDmaStart, To: PtDmaEnd, Sub: true},
	{Name: "reap", Comp: CompHost, From: PtCQE, To: PtFinish}, // completion-path kernel cost
}

// Walk returns the rows of StageTable r realises, as a bit per row: the
// partition rows that chain from PtStart — each starting where the last one
// ended — and the sub-intervals with both ends marked. It returns zero unless
// the chain reaches PtFinish: stages that do not tile the request's lifetime
// (the pipeline bailed between two marks) would misattribute it.
func (r *Rec) Walk() (rows uint16) {
	at := PtStart
	if !r.Has(at) {
		return 0
	}
	for i := range StageTable {
		st := &StageTable[i]
		switch {
		case st.Sub:
			if r.Has(st.From) && r.Has(st.To) {
				rows |= 1 << i
			}
		case st.From == at && r.Has(st.To):
			rows |= 1 << i
			at = st.To
		}
	}
	if at != PtFinish {
		return 0
	}
	return rows
}

// StageSpan is one stage interval of a timeline: a StageTable row with the
// record's instants at its two points.
type StageSpan struct {
	Name     string
	Comp     Comp
	From, To int64
	Sub      bool
}

// Stages appends rec's stage intervals to out (reusing its capacity) in
// path order. Partition stages (Sub=false) tile the request's lifetime
// exactly; nand/dma are informational sub-intervals of the backend (or
// device) stage.
func (r *Rec) Stages(out []StageSpan) []StageSpan {
	out = out[:0]
	rows := r.Walk()
	for i := range StageTable {
		if st := &StageTable[i]; rows&(1<<i) != 0 {
			out = append(out, StageSpan{Name: st.Name, Comp: st.Comp, From: r.TS[st.From], To: r.TS[st.To], Sub: st.Sub})
		}
	}
	return out
}

// OpString returns "read" or "write".
func (r *Rec) OpString() string {
	if r.Write {
		return "write"
	}
	return "read"
}

// Config configures a Recorder. The zero value disables recording.
type Config struct {
	// SampleEvery keeps every Nth request's full timeline (deterministic
	// counter-based sampling — never an RNG, so a given seed always samples
	// the same requests). Zero disables sampling.
	SampleEvery int
	// WorstK retains the K slowest requests' complete timelines in a bounded
	// min-heap keyed on end-to-end latency, so tail outliers are explained
	// even when unsampled. Zero disables; note that a nonzero WorstK makes
	// every request record its waits, queue depth and device phases (it
	// might turn out slowest), while sampling alone leaves those of
	// unsampled requests unrecorded.
	WorstK int
	// MaxSamples bounds the retained sample list per rig (memory and
	// allocation bound for long runs). Zero means DefaultMaxSamples.
	MaxSamples int
}

// Enabled reports whether the configuration records anything.
func (c Config) Enabled() bool { return c.SampleEvery > 0 || c.WorstK > 0 }

// DefaultMaxSamples caps retained samples per rig unless overridden.
const DefaultMaxSamples = 4096

// Recorder captures request timelines for one rig. Like the obs registry it
// belongs to, it is single-threaded and purely passive.
type Recorder struct {
	cfg Config
	max int

	n          uint64 // request ordinal (counts every request, sampled or not)
	errDropped uint64 // followed requests that ended on the error/abandon path

	samples []*Rec
	worst   []*Rec // min-heap: root is the least-slow retained record
	free    []*Rec // evicted worst-K copies, for reuse
}

// NewRecorder returns a recorder, or nil when the configuration disables
// recording (nil is the "free" recorder: every method no-ops).
func NewRecorder(cfg Config) *Recorder {
	if !cfg.Enabled() {
		return nil
	}
	max := cfg.MaxSamples
	if max <= 0 {
		max = DefaultMaxSamples
	}
	return &Recorder{cfg: cfg, max: max}
}

// Start counts one request into rec, which its caller has initialised — it
// gets its ordinal — and reports whether the recorder may want its timeline
// at Finish: the request is sampled, or worst-K tracking is armed. Only then
// need the caller record more than the stage points on rec (waits, queue
// depth, device phases) and hand it back through Finish or Drop, exactly once.
func (r *Recorder) Start(rec *Rec) bool {
	if r == nil {
		return false
	}
	r.n++
	rec.Seq = r.n
	rec.sampled = r.cfg.SampleEvery > 0 && r.n%uint64(r.cfg.SampleEvery) == 0
	if rec.sampled && len(r.samples) >= r.max {
		rec.sampled = false
	}
	return rec.sampled || r.cfg.WorstK > 0
}

// Finish routes a request that closed, PtFinish marked, with rec's points: a
// copy is retained if it was sampled, another if it is slow enough for the
// worst-K heap (the two sets evict independently); otherwise nothing is kept.
func (r *Recorder) Finish(rec *Rec) {
	if r == nil {
		return
	}
	if rec.sampled {
		r.samples = append(r.samples, r.keep(rec))
	}
	if k := r.cfg.WorstK; k > 0 && (len(r.worst) < k || recMin(r.worst[0], rec)) {
		if len(r.worst) == k {
			r.free = append(r.free, r.popMin())
		}
		r.push(r.keep(rec))
	}
}

// Drop counts a request the recorder was following that ended without a
// timeline worth keeping: error-path requests (timeouts, failed attempts) and
// collision-abandoned spans. Error timings would skew both the sample set
// and the worst-K heap the way they would skew the breakdown's partition
// property, so they are counted, not kept.
func (r *Recorder) Drop() {
	if r != nil {
		r.errDropped++
	}
}

// Dropped returns how many followed requests ended on the error/abandon path.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.errDropped
}

// RigDump is one rig's exported timeline state: retained samples in request
// order and the worst-K set slowest-first. The Rec pointers alias recorder
// state and are read-only.
type RigDump struct {
	Name     string
	Requests uint64
	Samples  []*Rec
	Worst    []*Rec
}

// Dump snapshots the recorder's retained timelines under the given rig
// name. Samples sort by ascending Seq, Worst by descending end-to-end
// latency (ties: ascending Seq) — both total orders, so the dump is a pure
// function of the simulation.
func (r *Recorder) Dump(name string) RigDump {
	d := RigDump{Name: name}
	if r == nil {
		return d
	}
	d.Requests = r.n
	d.Samples = append([]*Rec(nil), r.samples...)
	sort.Slice(d.Samples, func(i, j int) bool { return d.Samples[i].Seq < d.Samples[j].Seq })
	d.Worst = append([]*Rec(nil), r.worst...)
	sort.Slice(d.Worst, func(i, j int) bool {
		if d.Worst[i].E2E() != d.Worst[j].E2E() {
			return d.Worst[i].E2E() > d.Worst[j].E2E()
		}
		return d.Worst[i].Seq < d.Worst[j].Seq
	})
	return d
}

// recMin orders the worst-K min-heap: a < b means a is evicted before b.
// Slower requests rank higher; among equal latencies the first-seen request
// wins (later Seq ranks lower), which keeps retention deterministic.
func recMin(a, b *Rec) bool {
	if a.E2E() != b.E2E() {
		return a.E2E() < b.E2E()
	}
	return a.Seq > b.Seq
}

func (r *Recorder) push(rec *Rec) {
	r.worst = append(r.worst, rec)
	i := len(r.worst) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !recMin(r.worst[i], r.worst[parent]) {
			break
		}
		r.worst[i], r.worst[parent] = r.worst[parent], r.worst[i]
		i = parent
	}
}

func (r *Recorder) popMin() *Rec {
	min := r.worst[0]
	n := len(r.worst) - 1
	r.worst[0] = r.worst[n]
	r.worst[n] = nil
	r.worst = r.worst[:n]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < n && recMin(r.worst[l], r.worst[small]) {
			small = l
		}
		if rt < n && recMin(r.worst[rt], r.worst[small]) {
			small = rt
		}
		if small == i {
			break
		}
		r.worst[i], r.worst[small] = r.worst[small], r.worst[i]
		i = small
	}
	return min
}

// keep returns a retained copy of rec, reusing an evicted one when it can.
func (r *Recorder) keep(rec *Rec) *Rec {
	var c *Rec
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		c = new(Rec)
	}
	*c = *rec
	return c
}
