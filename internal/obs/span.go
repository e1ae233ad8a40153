package obs

import (
	"math"

	"bmstore/internal/nvme"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/stats"
)

// Request-lifecycle spans. Each non-flush I/O the host driver submits
// carries a span keyed by its NVMe identity (function, queue, CID) — the
// same triple both ends of the simulated wire can compute, so the span
// needs no pointer smuggled through rings or DMA. Instrumentation points
// mark stage timestamps as the command moves submit → doorbell → engine
// dispatch → mapping/QoS → backend/SSD → completion → MSI reap; at Finish
// the marks are folded into per-stage latency histograms.
//
// Stage boundaries partition the I/O's lifetime, so for any set of
// completed spans the per-stage means sum exactly to the end-to-end mean —
// the consistency property the breakdown table advertises.
//
// The NAND/media phase happens inside an SSD that only sees the backend's
// rewritten command, not the tenant's. The engine backend bridges the gap
// by registering an alias key in the device domain (device, backend queue,
// backend CID); the SSD attributes its media time through that alias. The
// device is a small integer the registry interns from the SSD's serial
// (Registry.Device) when the SSD and the backend are built, not per command.
//
// Both kinds of key are found by indexing, never by hashing: a table per
// (function or device, queue), grown on demand, holds the spans by CID.

// Op is the I/O direction of a span.
type Op uint8

// Span directions.
const (
	OpRead Op = iota
	OpWrite
	numOps
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Mark identifies one lifecycle timestamp within a span.
type Mark uint8

// Lifecycle marks in path order.
const (
	MarkStart       Mark = iota // host driver accepted the I/O
	MarkDoorbell                // SQ tail doorbell rung
	MarkDispatch                // engine front end picked the SQE up
	MarkMapped                  // LBA mapping + QoS admission + PRP rewrite done
	MarkBackendDone             // last backend sub-completion joined
	MarkCQE                     // host reaped the CQE (MSI path)
	MarkFinish                  // driver returned to the caller
	numMarks
)

// Stage identifies one latency bucket of the breakdown.
type Stage uint8

// Breakdown stages. Full-path (BM-Store) spans record submit, frontend,
// map, backend, complete and reap; direct-attached spans record submit,
// device and reap. The NAND stage is informational: it is a sub-interval
// of backend (or device), not a partition member.
const (
	StageSubmit   Stage = iota // start -> doorbell: kernel submit path
	StageFrontend              // doorbell -> dispatch: wire + SQE fetch
	StageMap                   // dispatch -> mapped: mapping, QoS, PRP rewrite
	StageBackend               // mapped -> backend done: forward + SSD + join
	StageComplete              // backend done -> CQE reap: CQE writeback + MSI
	StageDevice                // doorbell -> CQE reap on direct-attached rigs
	StageReap                  // CQE reap -> return: completion-path kernel cost
	NumStages
)

// String returns the stage's breakdown-table label.
func (s Stage) String() string {
	switch s {
	case StageSubmit:
		return "submit"
	case StageFrontend:
		return "frontend"
	case StageMap:
		return "map+qos"
	case StageBackend:
		return "backend"
	case StageComplete:
		return "complete"
	case StageDevice:
		return "device"
	case StageReap:
		return "reap"
	}
	return "?"
}

// SpanKey builds the host-domain span key from an I/O's NVMe identity.
func SpanKey(fn uint8, qid, cid uint16) uint64 {
	return uint64(fn)<<32 | uint64(qid)<<16 | uint64(cid)
}

// DevKey builds the device-domain alias key from the SSD's interned device id
// (Registry.Device) and the backend-side queue/CID pair. Device ids start at
// one, so no alias key is zero; aliases live in their own tables, so the host
// and device domains can never collide with each other.
func DevKey(dev uint32, qid, cid uint16) uint64 {
	return uint64(dev)<<32 | uint64(qid)<<16 | uint64(cid)
}

// Device interns an SSD serial as the small integer DevKey takes, the same
// one for the same serial: the SSD and the engine backend in front of it each
// ask once, at construction. A nil registry answers zero, which no device is
// interned as.
func (r *Registry) Device(serial string) uint32 {
	if r == nil {
		return 0
	}
	for i, s := range r.spans.devs {
		if s == serial {
			return uint32(i + 1)
		}
	}
	r.spans.devs = append(r.spans.devs, serial)
	return uint32(len(r.spans.devs))
}

// span is one in-flight request's lifecycle record. When the registry has a
// timeline recorder and this request is sampled (or worst-K tracking is on),
// rec is the request's pooled timeline carrier, bound once at SpanStart and
// released exactly once at SpanFinish (or on collision abandonment).
type span struct {
	op      Op
	set     uint16
	errored bool
	ts      [numMarks]int64
	media   int64
	aliases []uint64
	rec     *timeline.Rec
}

// markPoint maps span marks to their timeline points, so every SpanMark
// feeds the bound carrier without a second instrumentation call site.
var markPoint = [numMarks]timeline.Point{
	MarkStart:       timeline.PtStart,
	MarkDoorbell:    timeline.PtDoorbell,
	MarkDispatch:    timeline.PtDispatch,
	MarkMapped:      timeline.PtMapped,
	MarkBackendDone: timeline.PtBackendDone,
	MarkCQE:         timeline.PtCQE,
	MarkFinish:      timeline.PtFinish,
}

// spanDomain finds spans by key: indexed by the key's top half (function or
// device), then by queue, then — the CID of a backend command roams the whole
// 16-bit space — through a leaf table. Every level grows only as far as the
// keys stored need, and a lookup with a key beyond any level finds nothing.
type spanDomain [][]nvme.CIDTable[span]

// table returns the CID table key falls into, or nil when no key was ever
// stored under its function or device and queue.
func (d spanDomain) table(key uint64) *nvme.CIDTable[span] {
	if hi := key >> 32; hi < uint64(len(d)) {
		if qs, q := d[hi], uint16(key>>16); int(q) < len(qs) {
			return &qs[q]
		}
	}
	return nil
}

func (d spanDomain) get(key uint64) *span {
	if t := d.table(key); t != nil {
		return t.Get(uint16(key))
	}
	return nil
}

// put stores sp under key, whose top half the caller has bounded.
func (d *spanDomain) put(key uint64, sp *span) {
	hi, q := key>>32, uint16(key>>16)
	for uint64(len(*d)) <= hi {
		*d = append(*d, nil)
	}
	qs := &(*d)[hi]
	for len(*qs) <= int(q) {
		*qs = append(*qs, nvme.CIDTable[span]{})
	}
	(*qs)[q].Put(uint16(key), sp)
}

// delete removes and returns the span stored under key, or returns nil.
func (d spanDomain) delete(key uint64) *span {
	if t := d.table(key); t != nil {
		return t.Delete(uint16(key))
	}
	return nil
}

// count counts the entries; it walks every table, so it is for export and tests.
func (d spanDomain) count() (n int) {
	for _, qs := range d {
		for i := range qs {
			n += qs[i].Len()
		}
	}
	return n
}

// spanTable is the registry's span state: live spans by host key, alias
// entries by device key, the interned device serials, recycled span records,
// and the folded stage histograms.
type spanTable struct {
	live  spanDomain
	alias spanDomain
	devs  []string // serial of device id i+1
	free  []*span

	stage    [numOps][NumStages]stats.Hist
	e2e      [numOps]stats.Hist
	media    [numOps]stats.Hist
	finished [numOps]uint64

	collisions uint64 // SpanStart over a still-live key (key reuse)
	dropped    uint64 // finishes without a span, or with partial marks
	errored    uint64 // spans closed on the error path (timeout, bad status)
}

// SpanStart opens a span for the I/O identified by key at virtual time t.
// If the key is already live (possible on multi-driver direct rigs, where
// every driver shares function 0), the old span is abandoned and counted as
// a collision.
func (r *Registry) SpanStart(key uint64, op Op, t int64) {
	if r == nil || key>>32 > math.MaxUint8 {
		return // SpanKey builds no such key
	}
	tb := &r.spans
	if old := tb.live.get(key); old != nil {
		tb.collisions++
		tb.unalias(old)
		if old.rec != nil {
			r.tl.Drop(old.rec)
			old.rec = nil
		}
		tb.recycle(old)
	}
	sp := tb.get()
	sp.op = op
	sp.set = 1 << MarkStart
	sp.ts[MarkStart] = t
	if r.tl != nil {
		sp.rec = r.tl.Start(op == OpWrite, t)
	}
	tb.live.put(key, sp)
}

// SpanMark records one lifecycle timestamp. Unknown keys are ignored (an
// admin command, a flush, or a span lost to a collision).
func (r *Registry) SpanMark(key uint64, m Mark, t int64) {
	if r == nil {
		return
	}
	if sp := r.spans.live.get(key); sp != nil {
		sp.ts[m] = t
		sp.set |= 1 << m
		if sp.rec != nil {
			sp.rec.Mark(markPoint[m], t)
		}
	}
}

// SpanQD records the queue depth the request saw at its doorbell on the
// request's timeline carrier (no-op when the request is unsampled or
// timeline recording is off).
func (r *Registry) SpanQD(key uint64, qd int64) {
	if r == nil || r.tl == nil {
		return
	}
	if sp := r.spans.live.get(key); sp != nil && sp.rec != nil {
		sp.rec.QD = qd
	}
}

// SpanWait attributes d nanoseconds of resource waiting (host queue slot,
// QoS admission, backend queue) to the request's timeline carrier.
func (r *Registry) SpanWait(key uint64, w timeline.Wait, d int64) {
	if r == nil || r.tl == nil {
		return
	}
	if sp := r.spans.live.get(key); sp != nil {
		sp.rec.AddWait(w, d)
	}
}

// SpanWaitDev is SpanWait through a device-domain alias, for components
// that only see the backend identity (NAND die waits inside the SSD).
func (r *Registry) SpanWaitDev(alias uint64, w timeline.Wait, d int64) {
	if r == nil || r.tl == nil {
		return
	}
	if sp := r.spans.alias.get(alias); sp != nil {
		sp.rec.AddWait(w, d)
	}
}

// SpanPhases attributes the device-side NAND and DMA phase intervals to the
// span behind the device-domain alias. Sub-commands of one I/O run their
// phases in parallel on different SSDs; the carrier keeps the sub-command
// whose phase ends last — the one that gated completion — mirroring
// SpanMedia's max semantics.
func (r *Registry) SpanPhases(alias uint64, nandStart, nandEnd, dmaStart, dmaEnd int64) {
	if r == nil || r.tl == nil {
		return
	}
	sp := r.spans.alias.get(alias)
	if sp == nil || sp.rec == nil {
		return
	}
	rec := sp.rec
	if nandEnd > nandStart && (!rec.Has(timeline.PtNandEnd) || nandEnd > rec.TS[timeline.PtNandEnd]) {
		rec.Mark(timeline.PtNandStart, nandStart)
		rec.Mark(timeline.PtNandEnd, nandEnd)
	}
	if dmaEnd > dmaStart && (!rec.Has(timeline.PtDmaEnd) || dmaEnd > rec.TS[timeline.PtDmaEnd]) {
		rec.Mark(timeline.PtDmaStart, dmaStart)
		rec.Mark(timeline.PtDmaEnd, dmaEnd)
	}
}

// SpanAlias links a device-domain key to the span, so a component that only
// sees the backend identity (the SSD) can attribute time to it.
func (r *Registry) SpanAlias(key, alias uint64) {
	if r == nil {
		return
	}
	if alias>>32 > uint64(len(r.spans.devs)) {
		return // not a device Device has interned: DevKey builds no such key
	}
	if sp := r.spans.live.get(key); sp != nil {
		r.spans.alias.put(alias, sp)
		sp.aliases = append(sp.aliases, alias)
	}
}

// SpanMedia attributes d nanoseconds of NAND/media time to the span behind
// the device-domain alias. Sub-commands of one I/O run their media phases
// in parallel, so the span keeps the maximum.
func (r *Registry) SpanMedia(alias uint64, d int64) {
	if r == nil {
		return
	}
	if sp := r.spans.alias.get(alias); sp != nil {
		if d > sp.media {
			sp.media = d
		}
	}
}

// SpanError flags the span as having ended on the error path (a timed-out
// or failed attempt). At SpanFinish it is counted under Errored instead of
// contributing stage latencies — error-path timings would skew the
// breakdown's partition property.
func (r *Registry) SpanError(key uint64) {
	if r == nil {
		return
	}
	if sp := r.spans.live.get(key); sp != nil {
		sp.errored = true
	}
}

// SpanFinish closes the span at virtual time t and folds its stages into
// the breakdown histograms.
func (r *Registry) SpanFinish(key uint64, t int64) {
	if r == nil {
		return
	}
	tb := &r.spans
	sp := tb.live.delete(key)
	if sp == nil {
		tb.dropped++
		return
	}
	tb.unalias(sp)
	sp.ts[MarkFinish] = t
	sp.set |= 1 << MarkFinish
	if sp.rec != nil {
		if sp.errored {
			r.tl.Drop(sp.rec)
		} else {
			r.tl.Finish(sp.rec, t)
		}
		sp.rec = nil
	}
	tb.fold(sp)
	tb.recycle(sp)
}

// has reports whether every mark in mask was recorded.
func (sp *span) has(marks ...Mark) bool {
	for _, m := range marks {
		if sp.set&(1<<m) == 0 {
			return false
		}
	}
	return true
}

// fold classifies the span and records its stage intervals.
func (t *spanTable) fold(sp *span) {
	if sp.errored {
		t.errored++
		return
	}
	op := sp.op
	if op >= numOps || !sp.has(MarkStart, MarkDoorbell, MarkCQE, MarkFinish) {
		t.dropped++
		return
	}
	rec := func(st Stage, from, to Mark) {
		t.stage[op][st].Record(sp.ts[to] - sp.ts[from])
	}
	switch {
	case sp.has(MarkDispatch, MarkMapped, MarkBackendDone):
		rec(StageSubmit, MarkStart, MarkDoorbell)
		rec(StageFrontend, MarkDoorbell, MarkDispatch)
		rec(StageMap, MarkDispatch, MarkMapped)
		rec(StageBackend, MarkMapped, MarkBackendDone)
		rec(StageComplete, MarkBackendDone, MarkCQE)
		rec(StageReap, MarkCQE, MarkFinish)
	case !sp.has(MarkDispatch):
		rec(StageSubmit, MarkStart, MarkDoorbell)
		rec(StageDevice, MarkDoorbell, MarkCQE)
		rec(StageReap, MarkCQE, MarkFinish)
	default:
		// Engine saw the command but the pipeline bailed (error path):
		// stage attribution would be misleading, so only count the drop.
		t.dropped++
		return
	}
	t.e2e[op].Record(sp.ts[MarkFinish] - sp.ts[MarkStart])
	if sp.media > 0 {
		t.media[op].Record(sp.media)
	}
	t.finished[op]++
}

func (t *spanTable) unalias(sp *span) {
	for _, ak := range sp.aliases {
		if tab := t.alias.table(ak); tab != nil && tab.Get(uint16(ak)) == sp {
			tab.Delete(uint16(ak))
		}
	}
}

func (t *spanTable) get() *span {
	if n := len(t.free); n > 0 {
		sp := t.free[n-1]
		t.free = t.free[:n-1]
		return sp
	}
	return &span{}
}

func (t *spanTable) recycle(sp *span) {
	aliases := sp.aliases[:0]
	*sp = span{aliases: aliases}
	t.free = append(t.free, sp)
}

// mergeSpans folds this table's aggregate histograms into agg (used by Set
// to build a cross-rig breakdown).
func (t *spanTable) mergeInto(agg *SpanAgg) {
	for op := Op(0); op < numOps; op++ {
		for st := Stage(0); st < NumStages; st++ {
			agg.Stage[op][st].Merge(&t.stage[op][st])
		}
		agg.E2E[op].Merge(&t.e2e[op])
		agg.Media[op].Merge(&t.media[op])
		agg.Finished[op] += t.finished[op]
	}
	agg.Collisions += t.collisions
	agg.Dropped += t.dropped
	agg.Errored += t.errored
	agg.Live += uint64(t.live.count())
}

// SpanAgg is the merged breakdown state of one or more registries.
type SpanAgg struct {
	Stage    [numOps][NumStages]stats.Hist
	E2E      [numOps]stats.Hist
	Media    [numOps]stats.Hist
	Finished [numOps]uint64

	Collisions uint64
	Dropped    uint64
	Errored    uint64
	Live       uint64
}

// SpanAggregate returns the registry's breakdown state as a standalone
// aggregate (a copy; safe to merge further).
func (r *Registry) SpanAggregate() *SpanAgg {
	agg := &SpanAgg{}
	if r != nil {
		r.spans.mergeInto(agg)
	}
	return agg
}
