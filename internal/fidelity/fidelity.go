// Package fidelity is the paper-fidelity gate: it checks the structured
// Result records the experiments emit against checked-in goldens
// (goldens/*.json, fast scale, default seeds) in two layers.
//
// Layer one is exact: the simulator is deterministic, so every cell of
// every artifact must match its golden byte for byte. Any mismatch is
// *drift* — acceptable if intentional (regenerate the goldens), but never
// silent.
//
// Layer two is the paper's shape (shapes.go): the claims of BM-Store §V
// — who wins, by what factor, where the knees fall — encoded as named
// assertions over the results. A recalibration may move absolute numbers
// and be accepted by regenerating goldens; a shape violation means the
// reproduction no longer supports the paper and always fails, even on
// freshly written goldens.
package fidelity

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bmstore/internal/experiments"
)

// Kind classifies a finding.
type Kind int

const (
	// DriftExact: a cell, header, title, or note differs from the golden.
	DriftExact Kind = iota
	// ShapeViolation: a paper-shape assertion failed.
	ShapeViolation
	// MissingArtifact: the goldens have an artifact the run did not produce.
	MissingArtifact
	// ExtraArtifact: the run produced an artifact with no golden.
	ExtraArtifact
)

func (k Kind) String() string {
	switch k {
	case DriftExact:
		return "DRIFT"
	case ShapeViolation:
		return "SHAPE"
	case MissingArtifact:
		return "MISSING"
	case ExtraArtifact:
		return "EXTRA"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Finding is one comparator or shape-checker failure, precise enough to
// act on: the artifact, the cell (for drift), the rule (for shape), and
// both sides of any mismatch.
type Finding struct {
	Artifact string
	Kind     Kind
	Cell     string // drifted cell reference; empty for artifact-level findings
	Golden   string // golden-side value; empty when not a value mismatch
	Got      string // run-side value; empty when not a value mismatch
	Rule     string // violated shape-rule name; empty unless Kind == ShapeViolation
	Detail   string // human explanation
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %s", f.Kind, f.Artifact)
	if f.Rule != "" {
		fmt.Fprintf(&b, ": rule %q", f.Rule)
	}
	if f.Cell != "" {
		fmt.Fprintf(&b, ": cell %s", f.Cell)
	}
	if f.Golden != "" || f.Got != "" {
		fmt.Fprintf(&b, ": golden %q, got %q", f.Golden, f.Got)
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, ": %s", f.Detail)
	}
	return b.String()
}

// Report is the outcome of a fidelity check.
type Report struct {
	Findings  []Finding
	Artifacts int // artifacts compared against goldens
	Rules     int // shape rules evaluated
}

// OK reports whether the check passed clean.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// add records a finding.
func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// sortFindings puts the report in deterministic order: by artifact, then
// kind, then rule, then cell — independent of discovery order.
func (r *Report) sortFindings() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Artifact != b.Artifact {
			return a.Artifact < b.Artifact
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Cell < b.Cell
	})
}

// Write prints the report: every finding, then a one-line verdict. The
// bytes are deterministic for a given pair of inputs.
func (r *Report) Write(w io.Writer) error {
	drift, shape := 0, 0
	for _, f := range r.Findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
		if f.Kind == ShapeViolation {
			shape++
		} else {
			drift++
		}
	}
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "fidelity: %s — %d artifacts compared, %d shape rules evaluated, %d drift, %d shape violations\n",
		verdict, r.Artifacts, r.Rules, drift, shape)
	return err
}

// Check runs both layers: exact comparison of got against goldens, then
// the shape assertions over got. This is the single entry point the gate,
// `bmsctl sweep -check`, and `bmsctl fidelity-diff` share.
func Check(goldens, got []experiments.Result) *Report {
	rep := Compare(goldens, got)
	shapes := CheckShapes(got)
	rep.Findings = append(rep.Findings, shapes.Findings...)
	rep.Rules = shapes.Rules
	rep.sortFindings()
	return rep
}

// Compare is the exact layer: every artifact present in goldens must be
// present in got with an identical title, header, notes, and cell matrix.
// Artifacts only on one side are MissingArtifact/ExtraArtifact findings.
func Compare(goldens, got []experiments.Result) *Report {
	rep := &Report{}
	byID := make(map[string]*experiments.Result, len(got))
	for i := range got {
		byID[got[i].ID] = &got[i]
	}
	seen := make(map[string]bool, len(goldens))
	for i := range goldens {
		g := &goldens[i]
		seen[g.ID] = true
		res, ok := byID[g.ID]
		if !ok {
			rep.add(Finding{Artifact: g.ID, Kind: MissingArtifact,
				Detail: "artifact in goldens but absent from the run"})
			continue
		}
		rep.Artifacts++
		compareOne(rep, g, res)
	}
	for i := range got {
		if !seen[got[i].ID] {
			rep.add(Finding{Artifact: got[i].ID, Kind: ExtraArtifact,
				Detail: "artifact produced by the run but has no golden (regenerate goldens to adopt it)"})
		}
	}
	rep.sortFindings()
	return rep
}

// compareOne diffs one artifact cell by cell.
func compareOne(rep *Report, g, got *experiments.Result) {
	id := g.ID
	if g.Title != got.Title {
		rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: "title", Golden: g.Title, Got: got.Title})
	}
	if len(g.Header) != len(got.Header) {
		rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: "header",
			Golden: fmt.Sprintf("%d columns", len(g.Header)), Got: fmt.Sprintf("%d columns", len(got.Header))})
	} else {
		for c := range g.Header {
			if g.Header[c] != got.Header[c] {
				rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: fmt.Sprintf("header col %d", c),
					Golden: g.Header[c], Got: got.Header[c]})
			}
		}
	}
	if len(g.Rows) != len(got.Rows) {
		rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: "rows",
			Golden: fmt.Sprintf("%d rows", len(g.Rows)), Got: fmt.Sprintf("%d rows", len(got.Rows))})
		return
	}
	for r := range g.Rows {
		if len(g.Rows[r]) != len(got.Rows[r]) {
			rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: fmt.Sprintf("row %d", r),
				Golden: fmt.Sprintf("%d cells", len(g.Rows[r])), Got: fmt.Sprintf("%d cells", len(got.Rows[r]))})
			continue
		}
		for c := range g.Rows[r] {
			if g.Rows[r][c] != got.Rows[r][c] {
				rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: g.CellRef(r, c),
					Golden: g.Rows[r][c], Got: got.Rows[r][c]})
			}
		}
	}
	if len(g.Notes) != len(got.Notes) {
		rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: "notes",
			Golden: fmt.Sprintf("%d notes", len(g.Notes)), Got: fmt.Sprintf("%d notes", len(got.Notes))})
		return
	}
	for n := range g.Notes {
		if g.Notes[n] != got.Notes[n] {
			rep.add(Finding{Artifact: id, Kind: DriftExact, Cell: fmt.Sprintf("note %d", n),
				Golden: g.Notes[n], Got: got.Notes[n]})
		}
	}
}

// Golden is the on-disk schema of one goldens/<id>.json file.
type Golden struct {
	Scale  string             `json:"scale"`
	Result experiments.Result `json:"result"`
}

// goldenFile maps an artifact id to its golden filename. Every id the
// experiments use ("fig8+table5", "abl-qos", ...) is filename-safe as is.
func goldenFile(dir, id string) string { return filepath.Join(dir, id+".json") }

// LoadGoldens reads every *.json under dir (sorted by name), verifies all
// files agree on the scale, and returns the scale plus the golden results
// ordered by artifact id.
func LoadGoldens(dir string) (string, []experiments.Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return "", nil, err
	}
	if len(paths) == 0 {
		return "", nil, fmt.Errorf("fidelity: no goldens under %s (run `make goldens` to create them)", dir)
	}
	sort.Strings(paths)
	var scale string
	var out []experiments.Result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return "", nil, err
		}
		var g Golden
		if err := unmarshalStrict(raw, &g); err != nil {
			return "", nil, fmt.Errorf("fidelity: %s: %v", p, err)
		}
		if g.Result.ID == "" {
			return "", nil, fmt.Errorf("fidelity: %s: golden has no artifact id", p)
		}
		if scale == "" {
			scale = g.Scale
		} else if g.Scale != scale {
			return "", nil, fmt.Errorf("fidelity: %s: scale %q disagrees with sibling goldens (%q)", p, g.Scale, scale)
		}
		out = append(out, g.Result)
	}
	return scale, out, nil
}

// WriteGoldens writes one golden file per artifact. It refuses to bless
// results that violate the paper's shape: regenerating goldens is how
// intentional recalibration is accepted, and the shape layer is exactly
// the part that must survive recalibration.
func WriteGoldens(dir, scale string, results []experiments.Result) error {
	if rep := CheckShapes(results); !rep.OK() {
		var b strings.Builder
		_ = rep.Write(&b)
		return fmt.Errorf("fidelity: refusing to write goldens that violate the paper shape:\n%s", b.String())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		buf, err := encodeGolden(Golden{Scale: scale, Result: res})
		if err != nil {
			return err
		}
		if err := os.WriteFile(goldenFile(dir, res.ID), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// FilterByID keeps only the results whose ids are in the given set; used
// by `bmsctl sweep -only ... -check` so a partial run is compared against
// the matching subset of goldens instead of reporting everything else
// missing.
func FilterByID(results []experiments.Result, ids map[string]bool) []experiments.Result {
	var out []experiments.Result
	for _, r := range results {
		if ids[r.ID] {
			out = append(out, r)
		}
	}
	return out
}
