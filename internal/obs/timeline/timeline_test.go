package timeline

import (
	"testing"
)

// startRec begins one request the way a span does: the caller initialises the
// record, the recorder numbers it and says whether it is following it.
func startRec(r *Recorder, rec *Rec, start int64) bool {
	*rec = Rec{}
	rec.Mark(PtStart, start)
	return r.Start(rec)
}

// finishRec drives one request through the recorder with the given
// end-to-end latency, marking enough points for a valid timeline.
func finishRec(r *Recorder, start, e2e int64) {
	var rec Rec
	startRec(r, &rec, start)
	rec.Mark(PtDoorbell, start+1)
	rec.Mark(PtCQE, start+e2e-1)
	rec.Mark(PtFinish, start+e2e)
	r.Finish(&rec)
}

func TestNilRecorderIsFree(t *testing.T) {
	if r := NewRecorder(Config{}); r != nil {
		t.Fatalf("zero config should yield a nil recorder, got %+v", r)
	}
	var r *Recorder
	var rec Rec
	if startRec(r, &rec, 5) {
		t.Fatal("nil recorder follows a request")
	}
	// Every method must no-op on a nil receiver.
	r.Finish(&rec)
	r.Drop()
	if rec.Seq != 0 {
		t.Fatal("nil recorder numbered a request")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder reported nonzero state")
	}
	d := r.Dump("rig")
	if d.Name != "rig" || d.Requests != 0 || len(d.Samples) != 0 || len(d.Worst) != 0 {
		t.Fatalf("nil recorder dump not empty: %+v", d)
	}
}

func TestDeterministicSampling(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 4})
	for i := 0; i < 100; i++ {
		var rec Rec
		followed := startRec(r, &rec, int64(i)*10)
		// With worst-K off, only every 4th request is followed at all.
		if want := (i+1)%4 == 0; followed != want {
			t.Fatalf("request %d: followed=%v, want %v", i+1, followed, want)
		}
		if followed {
			rec.Mark(PtDoorbell, int64(i)*10+1)
			rec.Mark(PtCQE, int64(i)*10+4)
			rec.Mark(PtFinish, int64(i)*10+5)
			r.Finish(&rec)
		}
	}
	d := r.Dump("rig")
	if d.Requests != 100 || len(d.Samples) != 25 {
		t.Fatalf("%d requests, %d samples; want 100 and 25", d.Requests, len(d.Samples))
	}
	for i, rec := range d.Samples {
		if want := uint64((i + 1) * 4); rec.Seq != want {
			t.Fatalf("sample %d has seq %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestMaxSamplesCap(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, MaxSamples: 10})
	for i := 0; i < 25; i++ {
		finishRec(r, int64(i)*10, 5)
	}
	if len(r.samples) != 10 || r.n != 25 {
		t.Fatalf("%d samples of %d requests, want the cap of 10 of 25", len(r.samples), r.n)
	}
}

func TestWorstKRetainsSlowest(t *testing.T) {
	r := NewRecorder(Config{WorstK: 3})
	lats := []int64{50, 900, 20, 700, 800, 30, 600, 10}
	for i, lat := range lats {
		finishRec(r, int64(i)*10000, lat)
	}
	d := r.Dump("rig")
	if len(d.Worst) != 3 {
		t.Fatalf("worst set has %d records, want 3", len(d.Worst))
	}
	for i, want := range []int64{900, 800, 700} {
		if got := d.Worst[i].E2E(); got != want {
			t.Fatalf("worst[%d] e2e = %d, want %d", i, got, want)
		}
	}
}

func TestWorstKTieKeepsFirstSeen(t *testing.T) {
	r := NewRecorder(Config{WorstK: 2})
	for i := 0; i < 5; i++ {
		finishRec(r, int64(i)*1000, 400) // all identical latency
	}
	d := r.Dump("rig")
	if len(d.Worst) != 2 {
		t.Fatalf("worst set has %d records, want 2", len(d.Worst))
	}
	// Equal latencies: retention is first-seen, ordered by ascending seq.
	if d.Worst[0].Seq != 1 || d.Worst[1].Seq != 2 {
		t.Fatalf("tie retention kept seqs %d,%d; want 1,2", d.Worst[0].Seq, d.Worst[1].Seq)
	}
}

func TestSampledAndWorstAreIndependentCopies(t *testing.T) {
	// A sampled record that is also among the worst must appear in both sets,
	// and the two must be separate copies, of each other and of the caller's
	// record (eviction recycles worst-set records, and the caller's is the
	// body of a span that goes on to its next request).
	r := NewRecorder(Config{SampleEvery: 1, WorstK: 1})
	var rec Rec
	startRec(r, &rec, 0)
	rec.Mark(PtDoorbell, 1)
	rec.Mark(PtCQE, 499)
	rec.Mark(PtFinish, 500)
	r.Finish(&rec)
	d := r.Dump("rig")
	if len(d.Samples) != 1 || len(d.Worst) != 1 {
		t.Fatalf("got %d samples, %d worst; want 1, 1", len(d.Samples), len(d.Worst))
	}
	if d.Samples[0] == d.Worst[0] || d.Samples[0] == &rec || d.Worst[0] == &rec {
		t.Fatal("retained records alias each other or the caller's record")
	}
	if d.Samples[0].E2E() != d.Worst[0].E2E() || d.Samples[0].Seq != d.Worst[0].Seq {
		t.Fatal("worst-set copy diverged from the sample")
	}
	// Reuse the caller's record, as the next request under the span's key
	// does, and evict the worst-set copy with it: the sample survives both.
	startRec(r, &rec, 10000)
	rec.Mark(PtFinish, 10900)
	r.Finish(&rec)
	if got := r.Dump("rig").Samples[0]; got.E2E() != 500 || got.Seq != 1 {
		t.Fatalf("sample corrupted after reuse and worst-set eviction: seq %d e2e %d, want 1 and 500", got.Seq, got.E2E())
	}
}

func TestEvictedCopiesAreReused(t *testing.T) {
	r := NewRecorder(Config{WorstK: 1})
	// Each slower request evicts the one retained copy, which serves the
	// next retention: the recorder allocates for the first two and then
	// never again, and a request that is not retained costs it nothing.
	finishRec(r, 0, 100)
	finishRec(r, 1000, 200)
	if got := testing.AllocsPerRun(100, func() {
		finishRec(r, 0, 10)
		finishRec(r, 0, r.worst[0].E2E()+1)
	}); got != 0 {
		t.Fatalf("%v allocations per pair of requests at steady state, want 0", got)
	}
	if len(r.worst) != 1 || len(r.free) != 0 {
		t.Fatalf("worst %d free %d, want 1 and 0", len(r.worst), len(r.free))
	}
	if w := r.worst[0]; w.Seq != r.n || w.Has(PtDispatch) {
		t.Fatalf("reused copy kept stale state: %+v", w)
	}
}

func TestDropCounts(t *testing.T) {
	r := NewRecorder(Config{SampleEvery: 1, WorstK: 4})
	var rec Rec
	if !startRec(r, &rec, 0) {
		t.Fatal("request not followed")
	}
	r.Drop()
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped())
	}
	if len(r.samples) != 0 || len(r.worst) != 0 {
		t.Fatal("dropped request was retained")
	}
}

func TestAddWaitSemantics(t *testing.T) {
	var rec Rec
	// Sequential buckets accumulate.
	rec.AddWait(WaitHostQ, 5)
	rec.AddWait(WaitHostQ, 7)
	if rec.Waits[WaitHostQ] != 12 {
		t.Fatalf("host-q wait = %d, want 12", rec.Waits[WaitHostQ])
	}
	// Die waits keep the max across parallel stripes.
	rec.AddWait(WaitDie, 30)
	rec.AddWait(WaitDie, 10)
	rec.AddWait(WaitDie, 50)
	if rec.Waits[WaitDie] != 50 {
		t.Fatalf("die wait = %d, want 50", rec.Waits[WaitDie])
	}
	// Zero and negative deltas are ignored.
	rec.AddWait(WaitQoS, 0)
	rec.AddWait(WaitQoS, -4)
	if rec.Waits[WaitQoS] != 0 {
		t.Fatalf("qos wait = %d, want 0", rec.Waits[WaitQoS])
	}
}

func TestStagesFullPath(t *testing.T) {
	var rec Rec
	rec.Mark(PtStart, 100)
	rec.Mark(PtDoorbell, 110)
	rec.Mark(PtDispatch, 130)
	rec.Mark(PtMapped, 140)
	rec.Mark(PtNandStart, 150)
	rec.Mark(PtNandEnd, 180)
	rec.Mark(PtDmaStart, 180)
	rec.Mark(PtDmaEnd, 190)
	rec.Mark(PtBackendDone, 195)
	rec.Mark(PtCQE, 200)
	rec.Mark(PtFinish, 205)
	got := rec.Stages(nil)
	want := []StageSpan{
		{"submit", CompHost, 100, 110, false},
		{"frontend", CompEngine, 110, 130, false},
		{"map+qos", CompEngine, 130, 140, false},
		{"backend", CompEngine, 140, 195, false},
		{"complete", CompEngine, 195, 200, false},
		{"nand", CompDevice, 150, 180, true},
		{"dma", CompDevice, 180, 190, true},
		{"reap", CompHost, 200, 205, false},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(got), len(want), got)
	}
	var prev int64 = 100
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %+v, want %+v", i, got[i], want[i])
		}
		// The partition stages tile [start, finish] with no gaps.
		if !got[i].Sub {
			if got[i].From != prev {
				t.Fatalf("partition gap before %s: from %d, want %d", got[i].Name, got[i].From, prev)
			}
			prev = got[i].To
		}
	}
	if prev != 205 {
		t.Fatalf("partition ends at %d, want finish 205", prev)
	}
}

func TestStagesDirectDevicePath(t *testing.T) {
	// No engine dispatch (native / direct-attach schemes): the span between
	// doorbell and CQE collapses to a single device stage.
	var rec Rec
	rec.Mark(PtStart, 0)
	rec.Mark(PtDoorbell, 10)
	rec.Mark(PtCQE, 90)
	rec.Mark(PtFinish, 100)
	got := rec.Stages(nil)
	if len(got) != 3 || got[1].Name != "device" || got[1].Comp != CompDevice {
		t.Fatalf("direct path stages = %+v", got)
	}
}

func TestStagesIncompleteRecord(t *testing.T) {
	var rec Rec
	rec.Mark(PtStart, 0)
	rec.Mark(PtFinish, 10) // no doorbell, no CQE
	if got := rec.Stages(nil); len(got) != 0 {
		t.Fatalf("incomplete record yielded stages: %+v", got)
	}
}
