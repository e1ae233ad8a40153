package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bmstore/internal/obs/timeline"
)

// TestCSVQuotesLabelCommas: labels carrying commas, quotes, or newlines
// must be RFC 4180-quoted so a snapshot row stays six columns — and plain
// labels must pass through unchanged, keeping existing exports
// byte-identical.
func TestCSVQuotesLabelCommas(t *testing.T) {
	s := NewSet(Options{})
	r := s.Registry(`run,one`)
	c := r.Component(`pcie/link "a",b`)
	c.CounterOf("plain", func() uint64 { return 1 })
	c.Hist(`lat,ns`).Record(500)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"run,one","pcie/link ""a"",b",counter,plain,value,1`) {
		t.Fatalf("quoted counter row missing:\n%s", out)
	}
	if !strings.Contains(out, `"run,one","pcie/link ""a"",b",hist,"lat,ns",n,1`) {
		t.Fatalf("quoted hist row missing:\n%s", out)
	}
	// Every data row still splits into exactly six CSV fields.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if n := countCSVFields(line); n != 6 {
			t.Fatalf("row %q has %d fields, want 6", line, n)
		}
	}
}

// countCSVFields counts top-level commas outside RFC 4180 quotes, plus one.
func countCSVFields(line string) int {
	n, inQ := 1, false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				n++
			}
		}
	}
	return n
}

// TestExportersZeroSampleRig: a registry that observed nothing must export
// cleanly everywhere — CSV (header only for its rig), JSON, the summary,
// and an empty timeline dump.
func TestExportersZeroSampleRig(t *testing.T) {
	s := NewSet(Options{Timeline: timeline.Config{SampleEvery: 64, WorstK: 4}})
	s.Registry("idle") // created, never recorded into
	var csv, js, sum, tr bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(csv.String()); got != "rig,component,kind,name,field,value" {
		t.Fatalf("zero-sample CSV = %q", got)
	}
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var multi MultiSnapshot
	if err := json.Unmarshal(js.Bytes(), &multi); err != nil {
		t.Fatal(err)
	}
	if len(multi.Rigs) != 1 || multi.Rigs[0].Name != "idle" {
		t.Fatalf("zero-sample JSON rigs = %+v", multi.Rigs)
	}
	if err := s.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	dumps := s.TimelineDumps()
	if len(dumps) != 1 || dumps[0].Requests != 0 || len(dumps[0].Samples) != 0 || len(dumps[0].Worst) != 0 {
		t.Fatalf("zero-sample timeline dumps = %+v", dumps)
	}
	if err := s.WriteTimeline(&tr); err != nil {
		t.Fatal(err)
	}
	if back, err := timeline.ReadTrace(bytes.NewReader(tr.Bytes())); err != nil || len(back) != 1 {
		t.Fatalf("zero-sample trace round trip: %v, %d rigs", err, len(back))
	}
}

// TestSingleBucketHist: a histogram whose every sample landed in one bucket
// must report coherent stats — equal percentiles bracketing the value, and
// min == max — across the snapshot and CSV exporters.
func TestSingleBucketHist(t *testing.T) {
	s := NewSet(Options{})
	r := s.Registry("rig")
	h := r.Component("dev").Hist("media_ns")
	for i := 0; i < 5; i++ {
		h.Record(777)
	}
	snap := r.Snapshot()
	var hs *HistSnap
	for i := range snap.Components {
		for j := range snap.Components[i].Hists {
			if snap.Components[i].Hists[j].Name == "media_ns" {
				hs = &snap.Components[i].Hists[j]
			}
		}
	}
	if hs == nil {
		t.Fatal("media_ns hist missing from snapshot")
	}
	if hs.N != 5 || hs.MinNS != 777 || hs.MaxNS != 777 {
		t.Fatalf("single-bucket hist: n=%d min=%d max=%d, want 5/777/777", hs.N, hs.MinNS, hs.MaxNS)
	}
	if hs.MeanNS != 777 {
		t.Fatalf("single-bucket mean = %v, want 777", hs.MeanNS)
	}
	if hs.P50NS != hs.P99NS || hs.P99NS != hs.P999NS {
		t.Fatalf("single-bucket percentiles diverge: p50=%d p99=%d p999=%d", hs.P50NS, hs.P99NS, hs.P999NS)
	}
	if hs.P50NS < hs.MinNS {
		t.Fatalf("p50 %d below the only recorded value %d", hs.P50NS, hs.MinNS)
	}
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "rig,dev,hist,media_ns,n,5") {
		t.Fatalf("single-bucket hist missing from CSV:\n%s", csv.String())
	}
}
