package obs

import (
	"math"

	"bmstore/internal/nvme"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/stats"
)

// Request-lifecycle spans. Each non-flush I/O the host driver submits is one
// record, a Span: its stage points, resource waits and queue depth under
// internal/obs/timeline's vocabulary, the longest media phase, and how it
// ended. At SpanFinish the points are folded into per-stage latency
// histograms, and the timeline recorder copies the record if the request was
// sampled or is among the slowest — the breakdown table and the Perfetto
// trace read the same instants because there is only one set.
//
// A span is found by its NVMe identity (function, queue, CID) — the same
// triple both ends of the simulated wire can compute, so no pointer is
// smuggled through rings or DMA — and each component finds it once per
// command: the driver gets the handle from SpanStart, the engine front end
// looks it up at dispatch (Registry.Span), and what they record afterwards
// goes through the handle without a lookup. A nil handle (no registry, a
// flush, an admin command, a miss) takes every call and does nothing.
//
// Stage boundaries partition the I/O's lifetime, so for any set of
// completed spans the per-stage means sum exactly to the end-to-end mean —
// the consistency property the breakdown table advertises.
//
// The NAND/media phase happens inside an SSD that only sees the backend's
// rewritten command, not the tenant's. The engine backend bridges the gap
// by registering an alias key in the device domain (device, backend queue,
// backend CID); the SSD finds the span through that alias (SpanByAlias) when
// it issues the command. The device is a small integer the registry interns
// from the SSD's serial (Registry.Device) when the SSD and the backend are
// built, not per command.
//
// Both kinds of key are found by indexing, never by hashing: a table per
// (function or device, queue), grown on demand, holds the spans by CID.
//
// A host key owns its record. The record is live from SpanStart to
// SpanFinish, takes no marks while it is not, and is started again in place
// by the next request under that key — so a handle is the key, resolved: two
// drivers whose keys collide (direct rigs put every driver on function 0)
// share one record exactly as they shared one table entry. The exception is
// a span closed on the error path: the engine or the SSD may still be working
// on a command the host has timed out, handle in hand, so the key gives that
// record up and its next request starts on a fresh one, out of their reach.

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

// Stage identifies one latency bucket of the breakdown: the partition rows of
// timeline.StageTable, which declares their names and end points, in table
// order. Full-path (BM-Store) spans record submit, frontend, map, backend,
// complete and reap; direct-attached spans record submit, device and reap.
// The media phase is kept beside the stages (SpanAgg.Media): it is a
// sub-interval of backend (or device), not a partition member.
type Stage uint8

// Breakdown stages.
const (
	StageSubmit Stage = iota
	StageFrontend
	StageMap
	StageBackend
	StageComplete
	StageDevice
	StageReap
	NumStages
)

// stageRow[s] is stage s's row in timeline.StageTable.
var stageRow = func() (rows [NumStages]int) {
	n := 0
	for i := range timeline.StageTable {
		if !timeline.StageTable[i].Sub {
			rows[n] = i // out of range: the table has a partition row Stage lacks
			n++
		}
	}
	if n != int(NumStages) {
		panic("obs: Stage names a partition row timeline.StageTable lacks")
	}
	return rows
}()

// String returns the stage's breakdown-table label.
func (s Stage) String() string {
	if s < NumStages {
		return timeline.StageTable[stageRow[s]].Name
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

// Span is one request's lifecycle record and the handle a component holds on
// it for the length of a command. Its methods are safe on a nil handle and do
// nothing on a span that is not live.
type Span struct {
	rec      timeline.Rec
	live     bool
	recorded bool // the timeline recorder may keep rec: waits, depth and phases count
	errored  bool
	media    int64
	aliases  []uint64
}

// open reports whether the handle leads to a span that takes marks; followed,
// whether the timeline recorder may keep what only a timeline shows.
func (sp *Span) open() bool     { return sp != nil && sp.live }
func (sp *Span) followed() bool { return sp != nil && sp.live && sp.recorded }

// Mark records one lifecycle point at virtual time t.
func (sp *Span) Mark(p timeline.Point, t int64) {
	if sp.open() {
		sp.rec.Mark(p, t)
	}
}

// QD records the queue depth the request saw at its doorbell.
func (sp *Span) QD(qd int64) {
	if sp.followed() {
		sp.rec.QD = qd
	}
}

// Wait attributes d nanoseconds of resource waiting (host queue slot, QoS
// admission, backend queue, NAND die) to the request.
func (sp *Span) Wait(w timeline.Wait, d int64) {
	if sp.followed() {
		sp.rec.AddWait(w, d)
	}
}

// Media attributes d nanoseconds of NAND/media time to the request.
// Sub-commands of one I/O run their media phases in parallel, so the span
// keeps the longest.
func (sp *Span) Media(d int64) {
	if sp.open() && d > sp.media {
		sp.media = d
	}
}

// Phases attributes the device-side NAND and DMA phase intervals to the
// request. Sub-commands of one I/O run their phases in parallel on different
// SSDs; the span keeps, per phase, the sub-command's that ends last — the
// one that gated completion, which need not be the longest Media keeps.
func (sp *Span) Phases(nandStart, nandEnd, dmaStart, dmaEnd int64) {
	if !sp.followed() {
		return
	}
	rec := &sp.rec
	if nandEnd > nandStart && (!rec.Has(timeline.PtNandEnd) || nandEnd > rec.TS[timeline.PtNandEnd]) {
		rec.Mark(timeline.PtNandStart, nandStart)
		rec.Mark(timeline.PtNandEnd, nandEnd)
	}
	if dmaEnd > dmaStart && (!rec.Has(timeline.PtDmaEnd) || dmaEnd > rec.TS[timeline.PtDmaEnd]) {
		rec.Mark(timeline.PtDmaStart, dmaStart)
		rec.Mark(timeline.PtDmaEnd, dmaEnd)
	}
}

// Error flags the span as ending on the error path (a timed-out or failed
// attempt). At SpanFinish it is counted under Errored instead of
// contributing stage latencies — error-path timings would skew the
// breakdown's partition property.
func (sp *Span) Error() {
	if sp.open() {
		sp.errored = true
	}
}

// spanDomain finds spans by key: indexed by the key's top half (function or
// device), then by queue, then — the CID of a backend command roams the whole
// 16-bit space — through a leaf table. Every level grows only as far as the
// keys stored need, and a lookup with a key beyond any level finds nothing.
type spanDomain [][]nvme.CIDTable[Span]

// table returns the CID table key falls into, or nil when no key was ever
// stored under its function or device and queue.
func (d spanDomain) table(key uint64) *nvme.CIDTable[Span] {
	if hi := key >> 32; hi < uint64(len(d)) {
		if qs, q := d[hi], uint16(key>>16); int(q) < len(qs) {
			return &qs[q]
		}
	}
	return nil
}

func (d spanDomain) get(key uint64) *Span {
	if t := d.table(key); t != nil {
		return t.Get(uint16(key))
	}
	return nil
}

// put stores sp under key, whose top half the caller has bounded.
func (d *spanDomain) put(key uint64, sp *Span) {
	hi, q := key>>32, uint16(key>>16)
	for uint64(len(*d)) <= hi {
		*d = append(*d, nil)
	}
	qs := &(*d)[hi]
	for len(*qs) <= int(q) {
		*qs = append(*qs, nvme.CIDTable[Span]{})
	}
	(*qs)[q].Put(uint16(key), sp)
}

// count counts the entries; it walks every table, so it is for tests.
func (d spanDomain) count() (n int) {
	for _, qs := range d {
		for i := range qs {
			n += qs[i].Len()
		}
	}
	return n
}

// spanTable is the registry's span state: each host key's record, alias
// entries by device key, the interned device serials, and the folded stage
// histograms.
type spanTable struct {
	byKey spanDomain
	alias spanDomain
	devs  []string // serial of device id i+1
	live  uint64   // records between SpanStart and SpanFinish

	stage    [numOps][NumStages]stats.Hist
	e2e      [numOps]stats.Hist
	media    [numOps]stats.Hist
	finished [numOps]uint64

	collisions uint64 // SpanStart over a still-live key (key reuse)
	dropped    uint64 // finishes without a span, or with partial marks
	errored    uint64 // spans closed on the error path (timeout, bad status)
}

// SpanStart opens the span of the I/O identified by key at virtual time t and
// returns its handle. If the key is already live (possible on multi-driver
// direct rigs, where every driver shares function 0), the old request is
// abandoned, counted as a collision, and its holder's handle now leads to
// this one.
func (r *Registry) SpanStart(key uint64, op Op, t int64) *Span {
	if r == nil || key>>32 > math.MaxUint8 {
		return nil // SpanKey builds no such key
	}
	tb := &r.spans
	sp := tb.byKey.get(key)
	if sp == nil {
		sp = &Span{}
		tb.byKey.put(key, sp)
	}
	if sp.live {
		tb.collisions++
		tb.unalias(sp)
		if sp.recorded {
			r.tl.Drop()
		}
	} else {
		tb.live++
	}
	*sp = Span{live: true, aliases: sp.aliases[:0]}
	sp.rec.Write = op == OpWrite
	sp.rec.Mark(timeline.PtStart, t)
	sp.recorded = r.tl.Start(&sp.rec)
	return sp
}

// Span returns the live span started under the host key, or nil (an admin
// command, a flush, or a span the host has already closed).
func (r *Registry) Span(key uint64) *Span {
	if r == nil {
		return nil
	}
	if sp := r.spans.byKey.get(key); sp.open() {
		return sp
	}
	return nil
}

// SpanByAlias returns the span a device-domain key was aliased to, for a
// component that only sees the backend identity (the SSD), or nil.
func (r *Registry) SpanByAlias(alias uint64) *Span {
	if r == nil {
		return nil
	}
	return r.spans.alias.get(alias)
}

// SpanAlias links a device-domain key to the span, so a component that only
// sees the backend identity (the SSD) can find it.
func (r *Registry) SpanAlias(sp *Span, alias uint64) {
	if r == nil || !sp.open() {
		return
	}
	if alias>>32 > uint64(len(r.spans.devs)) {
		return // not a device Device has interned: DevKey builds no such key
	}
	r.spans.alias.put(alias, sp)
	sp.aliases = append(sp.aliases, alias)
}

// SpanFinish closes the span under key at virtual time t, folds its stages
// into the breakdown histograms and offers its timeline to the recorder.
func (r *Registry) SpanFinish(key uint64, t int64) {
	if r == nil {
		return
	}
	tb := &r.spans
	sp := tb.byKey.get(key)
	if !sp.open() {
		tb.dropped++
		return
	}
	tb.unalias(sp)
	sp.rec.Mark(timeline.PtFinish, t)
	if sp.errored {
		// Whoever still holds this record keeps it; see the header.
		tb.byKey.table(key).Delete(uint16(key))
		if sp.recorded {
			r.tl.Drop()
		}
	} else if sp.recorded {
		r.tl.Finish(&sp.rec)
	}
	tb.fold(sp)
	sp.live = false
	tb.live--
}

// fold classifies the span and records its stage intervals.
func (t *spanTable) fold(sp *Span) {
	if sp.errored {
		t.errored++
		return
	}
	rows := sp.rec.Walk()
	if rows == 0 {
		// The marks do not tile the lifetime — the engine saw the command but
		// the pipeline bailed, or a colliding driver took the record over —
		// and stage attribution would be misleading: only count the drop.
		t.dropped++
		return
	}
	op := OpRead
	if sp.rec.Write {
		op = OpWrite
	}
	ts := &sp.rec.TS
	for st, row := range stageRow {
		if rows&(1<<row) != 0 {
			def := &timeline.StageTable[row]
			t.stage[op][st].Record(ts[def.To] - ts[def.From])
		}
	}
	t.e2e[op].Record(sp.rec.E2E())
	if sp.media > 0 {
		t.media[op].Record(sp.media)
	}
	t.finished[op]++
}

// unalias removes the span's alias entries, except one the backend has since
// pointed at a newer span by reusing the CID.
func (t *spanTable) unalias(sp *Span) {
	for _, ak := range sp.aliases {
		if tab := t.alias.table(ak); tab != nil && tab.Get(uint16(ak)) == sp {
			tab.Delete(uint16(ak))
		}
	}
}

// mergeInto folds this table's aggregate histograms into agg (used by Set
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
	agg.Live += t.live
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
