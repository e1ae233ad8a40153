package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bmstore/internal/stats"
)

// Snapshot types. Every slice is emitted in sorted-name (or fixed stage)
// order and every field is a pure function of the simulation, so marshaling
// a snapshot yields byte-identical output for byte-identical runs — the
// property the serial-vs-parallel equivalence tests pin down. The types are
// exported so tools (cmd/bmsctl stats) can decode a -metrics-out file.

// MultiSnapshot is the exported form of a Set: one snapshot per rig, in
// sorted rig-name order.
type MultiSnapshot struct {
	Rigs []Snapshot `json:"rigs"`
}

// Snapshot is the exported state of one registry.
type Snapshot struct {
	Name       string          `json:"name,omitempty"`
	Components []ComponentSnap `json:"components"`
	Spans      *SpanSnap       `json:"spans,omitempty"`
}

// ComponentSnap is one component's instruments.
type ComponentSnap struct {
	Name     string        `json:"name"`
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"hists,omitempty"`
}

// CounterSnap is one counter's value plus its optional rate series.
type CounterSnap struct {
	Name   string      `json:"name"`
	Value  uint64      `json:"value"`
	Series *SeriesSnap `json:"series,omitempty"`
}

// GaugeSnap is one gauge's final level, peak, and time-weighted mean series.
type GaugeSnap struct {
	Name  string      `json:"name"`
	Value int64       `json:"value"`
	Peak  int64       `json:"peak"`
	Mean  *SeriesSnap `json:"mean,omitempty"`
}

// SeriesSnap is a fixed-interval virtual-time series.
type SeriesSnap struct {
	IntervalNS int64     `json:"interval_ns"`
	Bins       []float64 `json:"bins"`
}

// HistSnap summarises one latency histogram.
type HistSnap struct {
	Name   string  `json:"name,omitempty"`
	N      uint64  `json:"n"`
	MinNS  int64   `json:"min_ns"`
	MaxNS  int64   `json:"max_ns"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
}

// SpanSnap is the request-lifecycle breakdown of one registry.
type SpanSnap struct {
	Read       OpSpanSnap `json:"read"`
	Write      OpSpanSnap `json:"write"`
	Collisions uint64     `json:"collisions,omitempty"`
	Dropped    uint64     `json:"dropped,omitempty"`
	Errored    uint64     `json:"errored,omitempty"`
	Live       uint64     `json:"live,omitempty"`
}

// OpSpanSnap is one direction's span statistics.
type OpSpanSnap struct {
	N      uint64     `json:"n"`
	E2E    *HistSnap  `json:"e2e,omitempty"`
	Nand   *HistSnap  `json:"nand,omitempty"`
	Stages []HistSnap `json:"stages,omitempty"`
}

func histSnap(name string, h *stats.Hist) HistSnap {
	return HistSnap{
		Name:   name,
		N:      h.N(),
		MinNS:  h.Min(),
		MaxNS:  h.Max(),
		MeanNS: h.Mean(),
		P50NS:  h.Percentile(0.50),
		P99NS:  h.Percentile(0.99),
		P999NS: h.Percentile(0.999),
	}
}

// Snapshot renders the registry's current state. Gauge series are closed at
// each gauge's last update, which is deterministic per rig.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, name := range r.componentNames() {
		c := r.comps[name]
		cs := ComponentSnap{Name: name}
		for _, n := range sortedKeys(c.counters) {
			ctr := c.counters[n]
			snap := CounterSnap{Name: n, Value: ctr.v}
			if ctr.series != nil {
				snap.Series = &SeriesSnap{IntervalNS: ctr.series.Interval, Bins: ctr.series.Bins}
			}
			cs.Counters = append(cs.Counters, snap)
		}
		for _, n := range sortedKeys(c.gauges) {
			g := c.gauges[n]
			snap := GaugeSnap{Name: n, Value: g.v, Peak: g.peak}
			if bins := g.meanBins(g.lastT); bins != nil {
				snap.Mean = &SeriesSnap{IntervalNS: g.interval, Bins: bins}
			}
			cs.Gauges = append(cs.Gauges, snap)
		}
		for _, n := range sortedKeys(c.hists) {
			cs.Hists = append(cs.Hists, histSnap(n, &c.hists[n].h))
		}
		s.Components = append(s.Components, cs)
	}
	s.Spans = spanSnap(r.SpanAggregate())
	return s
}

func spanSnap(agg *SpanAgg) *SpanSnap {
	if agg.Finished[OpRead]+agg.Finished[OpWrite]+agg.Dropped+agg.Collisions+agg.Errored == 0 {
		return nil
	}
	snap := &SpanSnap{
		Collisions: agg.Collisions,
		Dropped:    agg.Dropped,
		Errored:    agg.Errored,
		Live:       agg.Live,
	}
	for op := Op(0); op < numOps; op++ {
		os := OpSpanSnap{N: agg.Finished[op]}
		if agg.E2E[op].N() > 0 {
			h := histSnap("e2e", &agg.E2E[op])
			os.E2E = &h
		}
		if agg.Media[op].N() > 0 {
			h := histSnap("nand", &agg.Media[op])
			os.Nand = &h
		}
		for st := Stage(0); st < NumStages; st++ {
			if agg.Stage[op][st].N() > 0 {
				os.Stages = append(os.Stages, histSnap(st.String(), &agg.Stage[op][st]))
			}
		}
		if op == OpRead {
			snap.Read = os
		} else {
			snap.Write = os
		}
	}
	return snap
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error { return writeJSON(w, s) }

// WriteJSON writes the multi-rig snapshot as indented JSON.
func (m MultiSnapshot) WriteJSON(w io.Writer) error { return writeJSON(w, m) }

func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV flattens the snapshot to rig,component,kind,name,field,value
// rows (series bins are JSON-only).
func (m MultiSnapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "rig,component,kind,name,field,value"); err != nil {
		return err
	}
	for _, rig := range m.Rigs {
		if err := rig.writeCSVRows(w); err != nil {
			return err
		}
	}
	return nil
}

// csvField quotes a label per RFC 4180 when it contains a comma, quote or
// newline; plain labels pass through unchanged, keeping existing output
// byte-identical.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func (s Snapshot) writeCSVRows(w io.Writer) error {
	row := func(component, kind, name, field string, value string) error {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%s\n",
			csvField(s.Name), csvField(component), kind, csvField(name), field, value)
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	i := func(v int64) string { return strconv.FormatInt(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	histRows := func(component, kind string, h HistSnap) error {
		for _, fv := range []struct {
			field string
			value string
		}{
			{"n", u(h.N)}, {"min_ns", i(h.MinNS)}, {"max_ns", i(h.MaxNS)},
			{"mean_ns", f(h.MeanNS)}, {"p50_ns", i(h.P50NS)}, {"p99_ns", i(h.P99NS)},
			{"p999_ns", i(h.P999NS)},
		} {
			if err := row(component, kind, h.Name, fv.field, fv.value); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range s.Components {
		for _, ctr := range c.Counters {
			if err := row(c.Name, "counter", ctr.Name, "value", u(ctr.Value)); err != nil {
				return err
			}
		}
		for _, g := range c.Gauges {
			if err := row(c.Name, "gauge", g.Name, "value", i(g.Value)); err != nil {
				return err
			}
			if err := row(c.Name, "gauge", g.Name, "peak", i(g.Peak)); err != nil {
				return err
			}
		}
		for _, h := range c.Hists {
			if err := histRows(c.Name, "hist", h); err != nil {
				return err
			}
		}
	}
	if s.Spans != nil {
		for _, dir := range []struct {
			name string
			op   OpSpanSnap
		}{{"read", s.Spans.Read}, {"write", s.Spans.Write}} {
			comp := "spans/" + dir.name
			if err := row(comp, "span", "finished", "n", u(dir.op.N)); err != nil {
				return err
			}
			if dir.op.E2E != nil {
				if err := histRows(comp, "span", *dir.op.E2E); err != nil {
					return err
				}
			}
			if dir.op.Nand != nil {
				if err := histRows(comp, "span", *dir.op.Nand); err != nil {
					return err
				}
			}
			for _, st := range dir.op.Stages {
				if err := histRows(comp, "stage", st); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteSummary prints a compact human-readable dump of every component's
// instruments plus the span totals.
func (s Snapshot) WriteSummary(w io.Writer) error {
	if s.Name != "" {
		if _, err := fmt.Fprintf(w, "rig %s:\n", s.Name); err != nil {
			return err
		}
	}
	for _, c := range s.Components {
		if _, err := fmt.Fprintf(w, "  %s:\n", c.Name); err != nil {
			return err
		}
		for _, ctr := range c.Counters {
			if _, err := fmt.Fprintf(w, "    %-18s %d\n", ctr.Name, ctr.Value); err != nil {
				return err
			}
		}
		for _, g := range c.Gauges {
			if _, err := fmt.Fprintf(w, "    %-18s %d (peak %d)\n", g.Name, g.Value, g.Peak); err != nil {
				return err
			}
		}
		for _, h := range c.Hists {
			if _, err := fmt.Fprintf(w, "    %-18s n=%d mean=%.1fus p99=%.1fus\n",
				h.Name, h.N, h.MeanNS/1e3, float64(h.P99NS)/1e3); err != nil {
				return err
			}
		}
	}
	if sp := s.Spans; sp != nil {
		if _, err := fmt.Fprintf(w, "  spans: read=%d write=%d dropped=%d errored=%d collisions=%d live=%d\n",
			sp.Read.N, sp.Write.N, sp.Dropped, sp.Errored, sp.Collisions, sp.Live); err != nil {
			return err
		}
	}
	return nil
}

// WriteBreakdown prints the per-stage latency table for the aggregate. For
// every direction with completed spans, the recorded stages partition each
// span's lifetime, so the printed stage-mean sum equals the end-to-end mean
// up to display rounding.
func (agg *SpanAgg) WriteBreakdown(w io.Writer) error {
	wrote := false
	for op := Op(0); op < numOps; op++ {
		if agg.Finished[op] == 0 {
			continue
		}
		wrote = true
		if _, err := fmt.Fprintf(w, "I/O latency breakdown — %s (%d spans)\n", op, agg.Finished[op]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-10s %9s %10s %10s %10s %10s\n",
			"stage", "count", "mean(us)", "p50(us)", "p99(us)", "max(us)"); err != nil {
			return err
		}
		var sum float64
		for st := Stage(0); st < NumStages; st++ {
			h := &agg.Stage[op][st]
			if h.N() == 0 {
				continue
			}
			sum += h.Mean()
			if _, err := fmt.Fprintf(w, "  %-10s %9d %10.2f %10.2f %10.2f %10.2f\n",
				st, h.N(), h.Mean()/1e3,
				float64(h.Percentile(0.50))/1e3, float64(h.Percentile(0.99))/1e3,
				float64(h.Max())/1e3); err != nil {
				return err
			}
		}
		e2e := &agg.E2E[op]
		if _, err := fmt.Fprintf(w, "  %-10s %9s %10.2f\n", "stage sum", "", sum/1e3); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-10s %9d %10.2f %10.2f %10.2f %10.2f\n",
			"end-to-end", e2e.N(), e2e.Mean()/1e3,
			float64(e2e.Percentile(0.50))/1e3, float64(e2e.Percentile(0.99))/1e3,
			float64(e2e.Max())/1e3); err != nil {
			return err
		}
		if m := &agg.Media[op]; m.N() > 0 {
			if _, err := fmt.Fprintf(w, "  %-10s %9d %10.2f %10.2f %10.2f %10.2f  (within backend/device)\n",
				"nand", m.N(), m.Mean()/1e3,
				float64(m.Percentile(0.50))/1e3, float64(m.Percentile(0.99))/1e3,
				float64(m.Max())/1e3); err != nil {
				return err
			}
		}
	}
	if !wrote {
		_, err := fmt.Fprintln(w, "I/O latency breakdown: no completed spans")
		return err
	}
	if agg.Dropped+agg.Collisions+agg.Errored > 0 {
		_, err := fmt.Fprintf(w, "  (%d spans dropped, %d errored, %d key collisions)\n",
			agg.Dropped, agg.Errored, agg.Collisions)
		return err
	}
	return nil
}
