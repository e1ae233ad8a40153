package obs

import (
	"bytes"
	"math"
	"testing"

	"bmstore/internal/obs/timeline"
)

// TestNilChainIsFree: the whole instrument chain must degrade to no-ops on a
// nil registry — this is the contract that lets every instrumentation site
// guard with a single nil check and pay nothing when metrics are off.
func TestNilChainIsFree(t *testing.T) {
	var r *Registry
	c := r.Component("x")
	if c != nil {
		t.Fatal("nil registry returned a non-nil component")
	}
	if r.Instance("x") != nil {
		t.Fatal("nil registry returned a non-nil instance")
	}
	// None of these may panic, and all reads must return zero values.
	c.CounterOf("n", func() uint64 { return 1 })
	ctr := c.Counter("n")
	ctr.AddAt(10, 4)
	if ctr.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := c.Gauge("g")
	g.Set(0, 5)
	g.Inc(1)
	g.Dec(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has state")
	}
	h := c.Hist("h")
	h.Record(100)
	if h != nil {
		t.Fatal("nil component returned a non-nil hist")
	}
	sp := r.SpanStart(1, OpRead, 0)
	if sp != nil || r.Span(1) != nil || r.SpanByAlias(2) != nil {
		t.Fatal("nil registry returned a span")
	}
	// A nil handle takes every call.
	sp.Mark(timeline.PtDoorbell, 1)
	sp.QD(2)
	sp.Wait(timeline.WaitHostQ, 3)
	sp.Media(3)
	sp.Phases(1, 2, 2, 3)
	sp.Error()
	r.SpanAlias(sp, 2)
	r.SpanFinish(1, 4)
	if agg := r.SpanAggregate(); agg.Finished[OpRead] != 0 {
		t.Fatal("nil registry folded spans")
	}

	var s *Set
	if s.Registry("rig") != nil {
		t.Fatal("nil set returned a registry")
	}
}

// TestInstanceNaming: per-prefix indices are assigned in creation order and
// components are interned by name.
func TestInstanceNaming(t *testing.T) {
	r := NewRegistry()
	a := r.Instance("host/driver")
	b := r.Instance("host/driver")
	l := r.Instance("pcie/link")
	if a.name != "host/driver0" || b.name != "host/driver1" || l.name != "pcie/link0" {
		t.Fatalf("instance names %q %q %q", a.name, b.name, l.name)
	}
	if r.Component("host/driver0") != a {
		t.Fatal("instance not interned under its numbered name")
	}
	if a.Counter("n") != a.Counter("n") {
		t.Fatal("counter not interned by name")
	}
}

// TestCounterOfReadsTheOwnersCount: a registered count is read when the
// counter is, never copied, and a name registered twice reads the sum.
func TestCounterOfReadsTheOwnersCount(t *testing.T) {
	r := NewRegistry()
	c := r.Component("engine/frontend")
	var a, b uint64
	c.CounterOf("flushes", func() uint64 { return a })
	a = 3
	if got := c.Counter("flushes").Value(); got != 3 {
		t.Fatalf("value %d, want the owner's 3", got)
	}
	r.Component("engine/frontend").CounterOf("flushes", func() uint64 { return b })
	b = 4
	if got := r.Snapshot().Components[0].Counters[0].Value; got != 7 {
		t.Fatalf("exported %d, want 3+4 from both owners", got)
	}
}

// TestGaugeTimeWeighting: between updates the level is integrated over
// virtual time, so per-bin means are true time-weighted averages — the
// passive replacement for a scheduled sampler.
func TestGaugeTimeWeighting(t *testing.T) {
	g := &Gauge{interval: 100}
	g.Set(0, 2)   // level 2 over [0,50)
	g.Set(50, 4)  // level 4 over [50,100)
	g.Set(100, 1) // level 1 over [100,150)
	bins := g.meanBins(150)
	if len(bins) != 2 {
		t.Fatalf("bins %v", bins)
	}
	if want := (2*50 + 4*50) / 100.0; math.Abs(bins[0]-want) > 1e-9 {
		t.Fatalf("bin 0 mean %v, want %v", bins[0], want)
	}
	// Bin 1 only covers [100,150): the integral is 1*50 over a 100ns bin.
	if want := 1 * 50 / 100.0; math.Abs(bins[1]-want) > 1e-9 {
		t.Fatalf("bin 1 mean %v, want %v", bins[1], want)
	}
	if g.peak != 4 || g.Value() != 1 {
		t.Fatalf("peak %d value %d", g.peak, g.Value())
	}

	// A gauge with no interval keeps scalar state only.
	g2 := &Gauge{}
	g2.Inc(10)
	g2.Inc(20)
	g2.Dec(30)
	if g2.Value() != 1 || g2.peak != 2 || g2.meanBins(100) != nil {
		t.Fatalf("intervalless gauge: value %d peak %d", g2.Value(), g2.peak)
	}
}

// TestRateCounterSeries: AddAt feeds the per-bin series.
func TestRateCounterSeries(t *testing.T) {
	r := New(Options{SeriesInterval: 100})
	ctr := r.Component("link").RateCounter("bytes")
	ctr.AddAt(10, 4096)
	ctr.AddAt(150, 4096)
	if ctr.Value() != 8192 {
		t.Fatalf("value %d", ctr.Value())
	}
	if ctr.series == nil {
		t.Fatal("rate counter has no series despite configured interval")
	}
	// With series disabled, RateCounter degrades to a plain counter.
	r2 := New(Options{})
	if r2.Component("link").RateCounter("bytes").series != nil {
		t.Fatal("series attached despite zero interval")
	}
}

// pathPoints are the points a request through the BMS-Engine marks, in path
// order; pathTS is one instant for each.
var pathPoints = [...]timeline.Point{
	timeline.PtStart, timeline.PtDoorbell, timeline.PtDispatch, timeline.PtMapped,
	timeline.PtBackendDone, timeline.PtCQE, timeline.PtFinish,
}

type pathTS = [len(pathPoints)]int64

// startMarked opens a span and marks every point between start and finish.
func startMarked(r *Registry, key uint64, op Op, ts pathTS) *Span {
	sp := r.SpanStart(key, op, ts[0])
	for i := 1; i < len(pathPoints)-1; i++ {
		sp.Mark(pathPoints[i], ts[i])
	}
	return sp
}

// markAll walks one span through the full BM-Store path with the given
// per-point timestamps.
func markAll(r *Registry, key uint64, op Op, ts pathTS) {
	startMarked(r, key, op, ts)
	r.SpanFinish(key, ts[len(ts)-1])
}

// TestStagesFollowTheTable: a breakdown stage is a partition row of
// timeline.StageTable, in table order, and takes its name from it.
func TestStagesFollowTheTable(t *testing.T) {
	want := []string{"submit", "frontend", "map+qos", "backend", "complete", "device", "reap"}
	if len(want) != int(NumStages) {
		t.Fatalf("%d stages, want %d", NumStages, len(want))
	}
	for st := Stage(0); st < NumStages; st++ {
		if def := timeline.StageTable[stageRow[st]]; def.Sub || def.Name != want[st] || st.String() != want[st] {
			t.Errorf("stage %d is table row %+v and prints %q, want partition row %q", st, def, st, want[st])
		}
	}
	if got := NumStages.String(); got != "?" {
		t.Errorf("out-of-range stage prints %q", got)
	}
}

// TestSpanFullPathPartition: full-path stages partition the lifetime, so
// stage sums reconstruct the end-to-end latency exactly.
func TestSpanFullPathPartition(t *testing.T) {
	r := NewRegistry()
	ts := pathTS{0, 10, 25, 45, 145, 160, 170}
	markAll(r, SpanKey(1, 2, 3), OpRead, ts)

	agg := r.SpanAggregate()
	if agg.Finished[OpRead] != 1 || agg.Dropped != 0 || agg.Live != 0 {
		t.Fatalf("finished %v dropped %d live %d", agg.Finished, agg.Dropped, agg.Live)
	}
	wantStage := map[Stage]int64{
		StageSubmit:   10,  // 0 -> 10
		StageFrontend: 15,  // 10 -> 25
		StageMap:      20,  // 25 -> 45
		StageBackend:  100, // 45 -> 145
		StageComplete: 15,  // 145 -> 160
		StageReap:     10,  // 160 -> 170
	}
	var sum float64
	for st, want := range wantStage {
		h := &agg.Stage[OpRead][st]
		if h.N() != 1 || h.Mean() != float64(want) {
			t.Errorf("stage %s: n=%d mean=%v, want one sample of %d", st, h.N(), h.Mean(), want)
		}
		sum += h.Mean()
	}
	if agg.Stage[OpRead][StageDevice].N() != 0 {
		t.Error("full-path span recorded a device stage")
	}
	if e2e := agg.E2E[OpRead].Mean(); sum != e2e || e2e != 170 {
		t.Fatalf("stage mean sum %v != e2e mean %v", sum, e2e)
	}
}

// TestSpanDirectPath: without a dispatch mark (no engine in the path) the
// span folds into submit/device/reap.
func TestSpanDirectPath(t *testing.T) {
	r := NewRegistry()
	key := SpanKey(0, 1, 9)
	sp := r.SpanStart(key, OpWrite, 0)
	sp.Mark(timeline.PtDoorbell, 8)
	sp.Mark(timeline.PtCQE, 108)
	r.SpanFinish(key, 120)

	agg := r.SpanAggregate()
	if agg.Finished[OpWrite] != 1 {
		t.Fatalf("finished %v", agg.Finished)
	}
	if d := &agg.Stage[OpWrite][StageDevice]; d.N() != 1 || d.Mean() != 100 {
		t.Fatalf("device stage n=%d mean=%v", d.N(), d.Mean())
	}
	if agg.Stage[OpWrite][StageFrontend].N() != 0 || agg.Stage[OpWrite][StageBackend].N() != 0 {
		t.Fatal("direct span recorded engine stages")
	}
}

// TestSpanErrorPathDropped: a span the engine saw but never completed the
// pipeline for (dispatch without mapped/backend) is counted as dropped, not
// misattributed to some stage.
func TestSpanErrorPathDropped(t *testing.T) {
	r := NewRegistry()
	key := SpanKey(0, 1, 1)
	sp := r.SpanStart(key, OpRead, 0)
	sp.Mark(timeline.PtDoorbell, 5)
	sp.Mark(timeline.PtDispatch, 9)
	sp.Mark(timeline.PtCQE, 50)
	r.SpanFinish(key, 60)

	agg := r.SpanAggregate()
	if agg.Dropped != 1 || agg.Finished[OpRead] != 0 {
		t.Fatalf("dropped %d finished %v", agg.Dropped, agg.Finished)
	}
	// Finishing an unknown key is also a drop, never a panic — and so is
	// finishing a key whose span has already been closed.
	r.SpanFinish(12345, 70)
	r.SpanFinish(key, 70)
	if agg := r.SpanAggregate(); agg.Dropped != 3 {
		t.Fatalf("dropped %d", agg.Dropped)
	}
}

// TestSpanCollision: restarting a live key abandons the old request and
// counts a collision (multi-driver direct rigs share function 0). The key
// owns one record, so both holders' handles lead to the newer request: the
// first driver's CQE mark lands on it and the first finish under the key
// closes it, exactly as when every mark looked the key up.
func TestSpanCollision(t *testing.T) {
	r := New(Options{Timeline: timeline.Config{SampleEvery: 1}})
	key := SpanKey(0, 1, 1)
	first := r.SpanStart(key, OpRead, 0)
	first.Mark(timeline.PtDoorbell, 1)
	second := r.SpanStart(key, OpRead, 10)
	agg := r.SpanAggregate()
	if agg.Collisions != 1 || agg.Live != 1 {
		t.Fatalf("collisions %d live %d", agg.Collisions, agg.Live)
	}
	if first != second {
		t.Fatal("a colliding start did not take over the key's record")
	}
	if second.rec.Has(timeline.PtDoorbell) || second.rec.TS[timeline.PtStart] != 10 || second.rec.Seq != 2 {
		t.Fatalf("the newer request inherited the abandoned one's state: %+v", second.rec)
	}
	if got := r.Timeline().Dropped(); got != 1 {
		t.Fatalf("recorder counted %d abandoned requests, want 1", got)
	}
	second.Mark(timeline.PtDoorbell, 11)
	first.Mark(timeline.PtCQE, 20)
	r.SpanFinish(key, 25) // the first driver's
	r.SpanFinish(key, 30) // the second driver's: nothing left under the key
	agg = r.SpanAggregate()
	if agg.Finished[OpRead] != 1 || agg.Dropped != 1 || agg.Live != 0 {
		t.Fatalf("finished %v dropped %d live %d, want one fold and one drop", agg.Finished, agg.Dropped, agg.Live)
	}
	if d := &agg.Stage[OpRead][StageDevice]; d.N() != 1 || d.Mean() != 9 {
		t.Fatalf("device stage n=%d mean=%v, want the newer doorbell to the older CQE", d.N(), d.Mean())
	}
}

// TestSpanAliasMedia: the device-domain alias lets the SSD attribute media
// time; parallel sub-commands keep the max; finish tears the alias down.
func TestSpanAliasMedia(t *testing.T) {
	r := NewRegistry()
	key := SpanKey(1, 1, 1)
	ak1 := DevKey(r.Device("SSDA"), 3, 7)
	ak2 := DevKey(r.Device("SSDB"), 3, 7)
	if ak1 == ak2 {
		t.Fatal("distinct serials produced the same alias key")
	}
	ts := pathTS{0, 1, 2, 3, 90, 95, 100}
	sp := startMarked(r, key, OpRead, ts)
	r.SpanAlias(sp, ak1)
	r.SpanAlias(sp, ak2)
	sub1, sub2 := r.SpanByAlias(ak1), r.SpanByAlias(ak2)
	if sub1 != sp || sub2 != sp {
		t.Fatal("an alias does not lead to its span")
	}
	sub1.Media(40)
	sub2.Media(55) // slower sub-command wins
	sub1.Media(30) // later, smaller: ignored
	r.SpanFinish(key, ts[len(ts)-1])

	agg := r.SpanAggregate()
	if m := &agg.Media[OpRead]; m.N() != 1 || m.Mean() != 55 {
		t.Fatalf("media n=%d mean=%v, want max 55", m.N(), m.Mean())
	}
	// Aliases must be gone, and a handle taken through one is dead.
	if r.SpanByAlias(ak1) != nil || r.SpanByAlias(ak2) != nil {
		t.Fatal("a finished span's alias still leads somewhere")
	}
	sub1.Media(999)
	if agg := r.SpanAggregate(); agg.Media[OpRead].Mean() != 55 {
		t.Fatal("stale handle still attributed media time")
	}
	if n := r.spans.alias.count(); n != 0 {
		t.Fatalf("%d alias entries leaked", n)
	}
}

// TestMediaAndPhasesSelectDifferently: of the parallel sub-commands of one
// I/O, Media keeps the longest media phase and Phases the interval that ends
// last — here two different sub-commands.
func TestMediaAndPhasesSelectDifferently(t *testing.T) {
	r := New(Options{Timeline: timeline.Config{SampleEvery: 1}})
	key := SpanKey(0, 1, 1)
	ts := pathTS{0, 1, 2, 3, 90, 95, 100}
	sp := startMarked(r, key, OpRead, ts)
	// Sub-command A: a long media phase that ends early. B: short, ends last.
	sp.Media(50)
	sp.Phases(10, 60, 60, 70)
	sp.Media(20)
	sp.Phases(55, 75, 75, 85)
	sp.Phases(5, 10, 10, 10) // earlier NAND end, empty DMA: neither replaces
	r.SpanFinish(key, ts[len(ts)-1])
	if m := r.SpanAggregate().Media[OpRead]; m.Mean() != 50 {
		t.Fatalf("media %v, want the longest, 50", m.Mean())
	}
	rec := r.Timeline().Dump("rig").Samples[0]
	if rec.TS[timeline.PtNandStart] != 55 || rec.TS[timeline.PtNandEnd] != 75 ||
		rec.TS[timeline.PtDmaStart] != 75 || rec.TS[timeline.PtDmaEnd] != 85 {
		t.Fatalf("phases %v, want the sub-command that ended last: nand 55-75, dma 75-85", rec.TS)
	}
}

// TestSpanKeysIndexWithoutColliding: spans are found by indexing with
// (function, queue, CID) and aliases with (device, queue, CID), so the same
// CID on another queue, function or device is another entry, and a key
// beyond what any level of the tables holds finds nothing.
func TestSpanKeysIndexWithoutColliding(t *testing.T) {
	r := NewRegistry()
	keys := []uint64{SpanKey(0, 1, 7), SpanKey(0, 2, 7), SpanKey(1, 1, 7), SpanKey(0, 1, 8), SpanKey(255, 65535, 65535), SpanKey(0, 1, 0)}
	spans := make([]*Span, len(keys))
	for i, k := range keys {
		spans[i] = r.SpanStart(k, OpRead, int64(i))
		if r.Span(k) != spans[i] {
			t.Fatalf("key %#x does not lead to the span started under it", k)
		}
	}
	if agg := r.SpanAggregate(); agg.Collisions != 0 || agg.Live != uint64(len(keys)) {
		t.Fatalf("%d distinct keys: collisions %d live %d", len(keys), agg.Collisions, agg.Live)
	}
	a, b := r.Device("SSDA"), r.Device("SSDB")
	if a == 0 || b == 0 || a == b || r.Device("SSDA") != a || r.Device("SSDB") != b {
		t.Fatalf("device ids %d and %d, then %d and %d; want two non-zero ids, each stable", a, b, r.Device("SSDA"), r.Device("SSDB"))
	}
	aliases := []uint64{DevKey(a, 1, 7), DevKey(b, 1, 7), DevKey(a, 2, 7), DevKey(a, 1, 8), DevKey(b, 65535, 65535), DevKey(b, 1, 0)}
	for i, ak := range aliases {
		r.SpanAlias(spans[i], ak)
	}
	for i, ak := range aliases {
		if got := r.SpanByAlias(ak); got == nil || got != spans[i] {
			t.Fatalf("alias %#x does not lead to the span of key %#x", ak, keys[i])
		}
	}

	// Keys nothing was stored under, at every level: an unknown function or
	// device, a queue past the function's table, a CID in a leaf that does
	// not exist, and top halves SpanKey and DevKey never produce.
	for _, k := range []uint64{SpanKey(2, 1, 7), SpanKey(1, 2, 7), SpanKey(1, 1, 0x4007), SpanKey(254, 65535, 65535), 1 << 40, 300<<32 | 5<<16 | 5} {
		if sp := r.Span(k); sp != nil {
			t.Fatalf("key %#x, never started, leads to a span", k)
		}
		if sp := r.SpanStart(k|1<<40, OpRead, 0); sp != nil {
			t.Fatalf("a key SpanKey cannot build (%#x) started a span", k|1<<40)
		}
	}
	for _, ak := range []uint64{DevKey(b+1, 1, 7), DevKey(a, 3, 7), DevKey(a, 1, 0x4007), ^uint64(0)} {
		if sp := r.SpanByAlias(ak); sp != nil {
			t.Fatalf("alias %#x, never registered, leads to a span", ak)
		}
	}
	r.SpanAlias(spans[0], DevKey(b+1, 1, 7)) // devices nobody interned
	r.SpanAlias(spans[0], DevKey(b+200, 1, 7))
	if n, m := r.spans.byKey.count(), r.spans.alias.count(); n != len(keys) || m != len(aliases) {
		t.Fatalf("%d spans and %d aliases after lookups that should all miss, want %d and %d", n, m, len(keys), len(aliases))
	}
	for i, sp := range spans {
		var want timeline.Rec
		want.Mark(timeline.PtStart, int64(i))
		if !sp.live || sp.errored || sp.media != 0 || sp.rec != want {
			t.Fatalf("span %#x was touched through another key: %+v", keys[i], sp)
		}
	}
	before := r.SpanAggregate().Dropped
	r.SpanFinish(SpanKey(3, 1, 7), 5)
	if got := r.SpanAggregate().Dropped; got != before+1 {
		t.Fatalf("finish of an unknown key: dropped %d -> %d, want one more", before, got)
	}
	for _, k := range keys {
		r.SpanFinish(k, 100)
	}
	if live, m := r.SpanAggregate().Live, r.spans.alias.count(); live != 0 || m != 0 {
		t.Fatalf("%d spans live and %d aliases left after every finish", live, m)
	}
	for _, k := range keys {
		if r.Span(k) != nil {
			t.Fatalf("key %#x leads to a span after its finish", k)
		}
	}
}

// TestAliasRepointedByCIDReuse: the backend reuses a CID as soon as its
// command completes, which can be before the host has finished the span that
// command belonged to. The alias then leads to the newer span, and the older
// span's finish must leave it alone: an alias is removed only if it still
// points at the span being torn down.
func TestAliasRepointedByCIDReuse(t *testing.T) {
	r := NewRegistry()
	older, newer := SpanKey(0, 1, 1), SpanKey(0, 1, 2)
	ak := DevKey(r.Device("SSDA"), 3, 7)
	ts := pathTS{0, 1, 2, 3, 90, 95, 100}
	for _, key := range []uint64{older, newer} {
		r.SpanAlias(startMarked(r, key, OpRead, ts), ak)
	}
	r.SpanFinish(older, ts[len(ts)-1])
	if got := r.SpanByAlias(ak); got == nil || got != r.Span(newer) {
		t.Fatal("the older span's finish removed an alias that had moved on to the newer span")
	}
	r.SpanByAlias(ak).Media(55)
	r.SpanFinish(newer, ts[len(ts)-1])
	agg := r.SpanAggregate()
	if m := &agg.Media[OpRead]; m.N() != 1 || m.Mean() != 55 || agg.Finished[OpRead] != 2 {
		t.Fatalf("media n=%d mean=%v over %d finished spans; want the newer span alone to carry 55", m.N(), m.Mean(), agg.Finished[OpRead])
	}
	if n := r.spans.alias.count(); n != 0 {
		t.Fatalf("%d alias entries leaked", n)
	}
}

// TestLateMarksOnAClosedSpan: the host closes a span on a timeout while the
// engine and the SSD still hold the command, and their handles; the CID goes
// back into circulation and the next request starts under the same key. What
// the old holders record from then on must reach neither the aggregate nor
// the new request. The guard is in SpanFinish — a key gives up a record
// closed on the error path — and this test fails without it: the new request
// would start in place on the record the stale handles lead to.
func TestLateMarksOnAClosedSpan(t *testing.T) {
	r := New(Options{Timeline: timeline.Config{SampleEvery: 1, WorstK: 2}})
	key := SpanKey(1, 1, 5)
	ak := DevKey(r.Device("SSDA"), 2, 9)
	ts := pathTS{0, 1, 2, 3, 90, 95, 100}

	engine := startMarked(r, key, OpRead, ts) // the handle feIO keeps
	r.SpanAlias(engine, ak)
	device := r.SpanByAlias(ak) // the handle ssdIO keeps
	engine.Error()
	r.SpanFinish(key, 3000) // the driver's timeout path

	next := startMarked(r, key, OpWrite, pathTS{5000, 5001, 5002, 5003, 5090, 5095, 5100})
	if next == engine {
		t.Error("the next request under the key started on the record closed on the error path")
	}
	before := *next
	late := func() {
		engine.Mark(timeline.PtMapped, 4000)
		engine.Mark(timeline.PtBackendDone, 4500)
		engine.Wait(timeline.WaitBackend, 700)
		engine.QD(99)
		engine.Error()
		r.SpanAlias(engine, ak)
		device.Wait(timeline.WaitDie, 800)
		device.Media(900)
		device.Phases(4000, 4400, 4400, 4500)
	}
	late()
	if r.SpanByAlias(ak) != nil {
		t.Fatal("a closed span took an alias")
	}
	if next.rec != before.rec || next.media != before.media || next.errored || !next.live {
		t.Fatalf("late marks on the closed span reached the new request:\n got %+v\nwant %+v", *next, before)
	}
	r.SpanFinish(key, 5100)
	late()

	agg := r.SpanAggregate()
	if agg.Errored != 1 || agg.Finished[OpWrite] != 1 || agg.Finished[OpRead] != 0 || agg.Dropped != 0 || agg.Live != 0 {
		t.Fatalf("errored %d finished %v dropped %d live %d, want one error and one clean write", agg.Errored, agg.Finished, agg.Dropped, agg.Live)
	}
	if agg.Media[OpWrite].N() != 0 || agg.E2E[OpWrite].Mean() != 100 || agg.Stage[OpWrite][StageBackend].Mean() != 87 {
		t.Fatalf("the new request's fold moved: media n=%d e2e %v backend %v", agg.Media[OpWrite].N(), agg.E2E[OpWrite].Mean(), agg.Stage[OpWrite][StageBackend].Mean())
	}
	d := r.Timeline().Dump("rig")
	if len(d.Samples) != 1 || len(d.Worst) != 1 || r.Timeline().Dropped() != 1 {
		t.Fatalf("%d samples, %d worst, %d dropped; want the new request kept in both and the timed-out one counted", len(d.Samples), len(d.Worst), r.Timeline().Dropped())
	}
	for _, rec := range []*timeline.Rec{d.Samples[0], d.Worst[0]} {
		if rec.Seq != 2 || !rec.Write || rec.QD != 0 || rec.Waits != [timeline.NumWaits]int64{} ||
			rec.Has(timeline.PtNandEnd) || rec.TS[timeline.PtMapped] != 5003 || rec.TS[timeline.PtBackendDone] != 5090 {
			t.Fatalf("the new request's timeline carries the old holders' marks: %+v", rec)
		}
	}
}

// buildRig populates a registry in the given component creation order; the
// contents are order-independent, so exports must be byte-identical.
func buildRig(r *Registry, order []string) {
	for _, name := range order {
		c := r.Component(name)
		c.Counter("ops").AddAt(0, uint64(len(name)))
		c.Gauge("depth").Set(0, int64(len(name)))
		c.Gauge("depth").Set(1000, 0)
		c.Hist("lat_ns").Record(int64(1000 * len(name)))
	}
	markAll(r, SpanKey(0, 1, 1), OpRead, pathTS{0, 1, 2, 3, 4, 5, 6})
}

// TestExportDeterministicOrder: snapshots iterate components and instruments
// in sorted-name order, so registration order (which varies with goroutine
// interleaving across rigs, never within one) cannot leak into the bytes.
func TestExportDeterministicOrder(t *testing.T) {
	export := func(order []string) (string, string) {
		set := NewSet(Options{SeriesInterval: DefaultSeriesInterval})
		buildRig(set.Registry("rig"), order)
		var j, c bytes.Buffer
		if err := set.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := set.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := export([]string{"ssd/A", "host/driver0", "engine/backend0"})
	j2, c2 := export([]string{"engine/backend0", "ssd/A", "host/driver0"})
	if j1 != j2 {
		t.Errorf("JSON depends on component creation order:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Error("CSV depends on component creation order")
	}
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatal("empty export")
	}
}

// TestSetAggregateAndBreakdown: the set merges per-rig span tables, and the
// breakdown writer renders a stage table whose sum row matches e2e.
func TestSetAggregateAndBreakdown(t *testing.T) {
	set := NewSet(Options{})
	markAll(set.Registry("a"), SpanKey(0, 1, 1), OpRead, pathTS{0, 10, 20, 30, 40, 50, 60})
	markAll(set.Registry("b"), SpanKey(0, 1, 1), OpRead, pathTS{0, 20, 40, 60, 80, 100, 120})

	agg := set.Aggregate()
	if agg.Finished[OpRead] != 2 {
		t.Fatalf("finished %v", agg.Finished)
	}
	if agg.E2E[OpRead].N() != 2 || agg.E2E[OpRead].Mean() != 90 {
		t.Fatalf("e2e n=%d mean=%v", agg.E2E[OpRead].N(), agg.E2E[OpRead].Mean())
	}
	var buf bytes.Buffer
	if err := set.WriteBreakdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"submit", "frontend", "map+qos", "backend", "complete", "reap", "stage sum", "end-to-end"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
}
