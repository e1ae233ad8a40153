package obs

import (
	"io"
	"sort"
	"sync"

	"bmstore/internal/obs/timeline"
)

// Set is a family of per-rig registries, the metrics counterpart of
// trace.Set: runs that build many independent simulation environments —
// possibly concurrently — give each rig its own child Registry keyed by a
// caller-chosen name. Each child stays single-threaded property of its
// environment; only child creation is locked. Exports walk the children in
// sorted-name order, so a parallel sweep's snapshot is byte-identical to a
// serial one's.
type Set struct {
	mu       sync.Mutex
	opts     Options
	children map[string]*Registry
}

// NewSet returns a registry family with the given per-child options.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, children: make(map[string]*Registry)}
}

// Registry returns the child registry for the named rig, creating it on
// first use. Nil-safe: a nil Set returns a nil Registry.
func (s *Set) Registry(name string) *Registry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.children[name]; ok {
		return r
	}
	r := New(s.opts)
	s.children[name] = r
	return r
}

// sortedNames returns child names sorted; callers hold s.mu.
func (s *Set) sortedNames() []string {
	names := make([]string, 0, len(s.children))
	for name := range s.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot renders every rig in sorted-name order.
func (s *Set) Snapshot() MultiSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m MultiSnapshot
	for _, name := range s.sortedNames() {
		snap := s.children[name].Snapshot()
		snap.Name = name
		m.Rigs = append(m.Rigs, snap)
	}
	return m
}

// WriteJSON writes the whole family as one deterministic JSON document.
func (s *Set) WriteJSON(w io.Writer) error { return s.Snapshot().WriteJSON(w) }

// WriteCSV writes the whole family as deterministic CSV rows.
func (s *Set) WriteCSV(w io.Writer) error { return s.Snapshot().WriteCSV(w) }

// WriteSummary prints every rig's human-readable summary in name order.
func (s *Set) WriteSummary(w io.Writer) error {
	for _, snap := range s.Snapshot().Rigs {
		if err := snap.WriteSummary(w); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate merges every rig's span state into one breakdown aggregate.
func (s *Set) Aggregate() *SpanAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := &SpanAgg{}
	for _, name := range s.sortedNames() {
		s.children[name].spans.mergeInto(agg)
	}
	return agg
}

// WriteBreakdown prints the per-stage latency table merged across rigs.
func (s *Set) WriteBreakdown(w io.Writer) error {
	return s.Aggregate().WriteBreakdown(w)
}

// TimelineDumps snapshots every rig's retained timelines in sorted-name
// order, skipping rigs without a recorder. Sorted-name order makes a
// parallel sweep's dump identical to a serial one's.
func (s *Set) TimelineDumps() []timeline.RigDump {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []timeline.RigDump
	for _, name := range s.sortedNames() {
		if rec := s.children[name].Timeline(); rec != nil {
			out = append(out, rec.Dump(name))
		}
	}
	return out
}

// WriteTimeline writes the whole family's retained timelines as one
// deterministic Chrome/Perfetto trace-event JSON document.
func (s *Set) WriteTimeline(w io.Writer) error {
	return timeline.WriteTrace(w, s.TimelineDumps())
}
