package timeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fullRec builds one complete full-path record.
func fullRec(seq uint64, write bool, base, e2e int64) *Rec {
	r := &Rec{Seq: seq, Write: write, QD: int64(seq) * 2}
	r.Mark(PtStart, base)
	r.Mark(PtDoorbell, base+e2e/10)
	r.Mark(PtDispatch, base+e2e/5)
	r.Mark(PtMapped, base+e2e/4)
	r.Mark(PtNandStart, base+e2e/3)
	r.Mark(PtNandEnd, base+e2e/2)
	r.Mark(PtDmaStart, base+e2e/2)
	r.Mark(PtDmaEnd, base+2*e2e/3)
	r.Mark(PtBackendDone, base+3*e2e/4)
	r.Mark(PtCQE, base+9*e2e/10)
	r.Mark(PtFinish, base+e2e)
	r.Waits[WaitHostQ] = 11
	r.Waits[WaitQoS] = 22
	r.Waits[WaitBackend] = 33
	r.Waits[WaitDie] = 44
	return r
}

func TestWriteTraceExactBytes(t *testing.T) {
	rec := &Rec{Seq: 2, QD: 3}
	rec.Mark(PtStart, 1000)
	rec.Mark(PtDoorbell, 1500)
	rec.Mark(PtCQE, 4500)
	rec.Mark(PtFinish, 5000)
	rec.Waits[WaitHostQ] = 250
	var buf bytes.Buffer
	err := WriteTrace(&buf, []RigDump{{Name: "r0", Requests: 7, Samples: []*Rec{rec}}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"r0"}},
{"ph":"M","pid":0,"name":"bmstore_rig","args":{"requests":7,"sampled":1,"worst":0}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"host"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"engine"}},
{"ph":"M","pid":0,"tid":3,"name":"thread_name","args":{"name":"device"}},
{"ph":"X","pid":0,"tid":1,"ts":1.000,"dur":4.000,"name":"read seq=2","args":{"seq":2,"qd":3,"wait_host_q_ns":250,"wait_qos_ns":0,"wait_backend_q_ns":0,"wait_die_ns":0}},
{"ph":"X","pid":0,"tid":1,"ts":1.000,"dur":0.500,"name":"submit","args":{"seq":2}},
{"ph":"X","pid":0,"tid":3,"ts":1.500,"dur":3.000,"name":"device","args":{"seq":2}},
{"ph":"X","pid":0,"tid":1,"ts":4.500,"dur":0.500,"name":"reap","args":{"seq":2}}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("trace bytes mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteTraceEmptyInputs(t *testing.T) {
	// No rigs at all, and a rig that observed requests but retained nothing
	// (zero-sample rig): both must serialize to valid, loadable JSON.
	for _, rigs := range [][]RigDump{nil, {{Name: "quiet", Requests: 42}}} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, rigs); err != nil {
			t.Fatal(err)
		}
		var v struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			t.Fatalf("empty-input trace is not valid JSON: %v\n%s", err, buf.String())
		}
		back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rigs) == 0 {
			if len(back) != 0 {
				t.Fatalf("round trip invented rigs: %+v", back)
			}
			continue
		}
		if len(back) != 1 || back[0].Name != "quiet" || back[0].Requests != 42 ||
			len(back[0].Samples) != 0 || len(back[0].Worst) != 0 {
			t.Fatalf("zero-sample rig round trip = %+v", back)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	// Two rigs, overlapping sampled requests (forcing multi-lane assignment),
	// a worst-K set, and a direct-path record: everything the writer encodes
	// must come back exactly.
	s1 := fullRec(4, false, 10_000, 9_000)
	s2 := fullRec(6, true, 12_000, 30_000) // overlaps s1 -> lane 1
	s3 := fullRec(8, false, 50_000, 2_000)
	w1 := fullRec(6, true, 12_000, 30_000)
	direct := &Rec{Seq: 3, QD: 1}
	direct.Mark(PtStart, 100)
	direct.Mark(PtDoorbell, 200)
	direct.Mark(PtCQE, 900)
	direct.Mark(PtFinish, 1000)
	rigs := []RigDump{
		{Name: "a", Requests: 64, Samples: []*Rec{s1, s2, s3}, Worst: []*Rec{w1}},
		{Name: "b", Requests: 9, Samples: []*Rec{direct}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rigs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip returned %d rigs, want 2", len(back))
	}
	for i, rig := range rigs {
		got := back[i]
		if got.Name != rig.Name || got.Requests != rig.Requests {
			t.Fatalf("rig %d header = %q/%d, want %q/%d", i, got.Name, got.Requests, rig.Name, rig.Requests)
		}
		if len(got.Samples) != len(rig.Samples) || len(got.Worst) != len(rig.Worst) {
			t.Fatalf("rig %d retained %d/%d records, want %d/%d",
				i, len(got.Samples), len(got.Worst), len(rig.Samples), len(rig.Worst))
		}
		for j, want := range rig.Samples {
			assertRecEqual(t, got.Samples[j], want)
		}
		for j, want := range rig.Worst {
			assertRecEqual(t, got.Worst[j], want)
		}
	}
	// Writing the reconstruction again reproduces the file byte for byte —
	// the export is a lossless fixed point.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-exported trace differs from the original")
	}
}

// assertRecEqual compares every field the trace encodes (the unexported
// sampled flag is writer-internal and not round-tripped).
func assertRecEqual(t *testing.T, got, want *Rec) {
	t.Helper()
	if got.Seq != want.Seq || got.Write != want.Write || got.QD != want.QD {
		t.Fatalf("rec header = %d/%v/%d, want %d/%v/%d",
			got.Seq, got.Write, got.QD, want.Seq, want.Write, want.QD)
	}
	if got.Waits != want.Waits {
		t.Fatalf("rec %d waits = %v, want %v", got.Seq, got.Waits, want.Waits)
	}
	for p := Point(0); p < NumPoints; p++ {
		if got.Has(p) != want.Has(p) {
			t.Fatalf("rec %d point %s presence = %v, want %v", got.Seq, p, got.Has(p), want.Has(p))
		}
		if want.Has(p) && got.TS[p] != want.TS[p] {
			t.Fatalf("rec %d point %s = %d, want %d", got.Seq, p, got.TS[p], want.TS[p])
		}
	}
}

func TestLaneAssignOverlap(t *testing.T) {
	a := fullRec(1, false, 0, 1000)
	b := fullRec(2, false, 500, 1000)  // overlaps a
	c := fullRec(3, false, 1200, 500)  // fits after a in lane 0
	d := fullRec(4, false, 1400, 1000) // overlaps b and c
	lanes := laneAssign([]*Rec{a, b, c, d})
	if want := []int{0, 1, 0, 2}; !reflect.DeepEqual(lanes, want) {
		t.Fatalf("lanes = %v, want %v", lanes, want)
	}
}

func TestUsecFormat(t *testing.T) {
	cases := map[int64]string{
		0:       "0.000",
		1:       "0.001",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
		back, err := parseUsec(usec(ns))
		if err != nil || back != ns {
			t.Errorf("parseUsec(usec(%d)) = %d, %v", ns, back, err)
		}
	}
}

func TestWriteSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0 rig(s)") || !strings.Contains(out, "(no timelines retained)") {
		t.Fatalf("empty summary = %q", out)
	}
	// A rig with requests but no retained records takes the same path.
	buf.Reset()
	if err := WriteSummary(&buf, []RigDump{{Name: "quiet", Requests: 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(no timelines retained)") {
		t.Fatalf("zero-sample summary = %q", buf.String())
	}
}

func TestWriteSummaryTailAttribution(t *testing.T) {
	slow := fullRec(2, false, 0, 100_000)
	fast := fullRec(4, false, 200_000, 10_000)
	var buf bytes.Buffer
	err := WriteSummary(&buf, []RigDump{{
		Name: "r", Requests: 8, Samples: []*Rec{slow, fast}, Worst: []*Rec{slow},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"1 rig(s), 2 sampled, 1 worst-K record(s), 8 request(s) observed",
		"tail attribution — worst-1 vs sampled population",
		"tail dominated by backend",
		"waits (worst-K mean, us): host-q=0.011 qos=0.022 backend-q=0.033 die=0.044",
		"sampled population: 2 record(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteWaterfall(t *testing.T) {
	rec := fullRec(6, true, 1000, 48_000)
	var buf bytes.Buffer
	if err := WriteWaterfall(&buf, "rig0", rec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rig rig0 seq 6 write qd=12 e2e=48.000 us") {
		t.Fatalf("waterfall header missing:\n%s", out)
	}
	for _, stage := range []string{"submit", "frontend", "map+qos", "backend", "complete", "nand", "dma", "reap"} {
		if !strings.Contains(out, stage) {
			t.Fatalf("waterfall missing stage %q:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Fatal("waterfall has no bars")
	}
	// Degenerate record: zero-length timeline must not divide by zero.
	var zero Rec
	buf.Reset()
	if err := WriteWaterfall(&buf, "rig0", &zero); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(empty timeline)") {
		t.Fatalf("zero-e2e waterfall = %q", buf.String())
	}
}
