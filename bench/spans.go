package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// spans is the traced run's recorder: one record per call into a layer,
// kept in memory and written as Chrome trace-event JSON at exit. It lives
// in the benchmark, not in the simulator — spans inside the program are a
// later change. A nil *spans records nothing, so call sites do not branch
// on whether the run is traced. Every span is opened and closed on the
// goroutine that holds the simulation's single thread of control (or on
// main), so the recorder takes no lock.
type spans struct {
	epoch time.Time
	run   string
	recs  []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Run    string `json:"run"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start_ns"` // since epoch
	End    int64  `json:"end_ns"`
}

// span is a handle on an open record.
type span struct {
	s  *spans
	id int
}

// Lanes keep spans that do not nest (a slice straddling a phase boundary)
// and spans of different kinds on separate rows of the trace viewer.
const (
	laneMain = iota + 1
	laneSlice
	laneProbe
	laneFleet
)

func newSpans(run string) *spans { return &spans{epoch: time.Now(), run: run} }

// begin opens a span under parent (a zero span means the root).
func (s *spans) begin(parent span, lane int, name string) span {
	if s == nil {
		return span{}
	}
	now := time.Since(s.epoch).Nanoseconds()
	id := len(s.recs) + 1
	s.recs = append(s.recs, spanRec{ID: id, Parent: parent.id, Name: name, Run: s.run, Lane: lane, Start: now})
	return span{s: s, id: id}
}

// end closes the span and returns its duration.
func (sp span) end() time.Duration {
	if sp.s == nil {
		return 0
	}
	now := time.Since(sp.s.epoch).Nanoseconds()
	r := &sp.s.recs[sp.id-1]
	r.End = now
	return time.Duration(r.End - r.Start)
}

// spanTotal is one row of the per-name summary.
type spanTotal struct {
	Name    string  `json:"name"`
	N       int     `json:"n"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the part covered by child spans
}

// summary folds the records by name. Self time is a span's duration minus
// its children's, floored at zero: a slice that straddles a phase boundary
// is charged whole to the phase it began in.
func (s *spans) summary() []spanTotal {
	if s == nil {
		return nil
	}
	child := make(map[int]int64)
	for _, r := range s.recs {
		child[r.Parent] += r.End - r.Start
	}
	byName := make(map[string]*spanTotal)
	for _, r := range s.recs {
		t := byName[r.Name]
		if t == nil {
			t = &spanTotal{Name: r.Name}
			byName[r.Name] = t
		}
		d := r.End - r.Start
		self := d - child[r.ID]
		if self < 0 {
			self = 0
		}
		t.N++
		t.TotalMS += float64(d) / 1e6
		t.SelfMS += float64(self) / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// medianMS returns the median duration of the spans with the given name.
func (s *spans) medianMS(name string) float64 {
	if s == nil {
		return 0
	}
	var d []float64
	for _, r := range s.recs {
		if r.Name == name {
			d = append(d, float64(r.End-r.Start)/1e6)
		}
	}
	return median(d)
}

// writeChrome writes the records as a Chrome trace-event array (open it in
// chrome://tracing or ui.perfetto.dev). Each span is one complete ("X")
// event; id, parent and run travel in args.
func (s *spans) writeChrome(w io.Writer) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, 0, len(s.recs))
	for _, r := range s.recs {
		evs = append(evs, ev{
			Name: r.Name, Ph: "X", TS: float64(r.Start) / 1e3, Dur: float64(r.End-r.Start) / 1e3,
			PID: 1, TID: r.Lane,
			Args: map[string]any{"id": r.ID, "parent": r.Parent, "run": r.Run},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
