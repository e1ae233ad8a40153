package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is the machine-readable record of one evaluation artifact: the
// same cells the rendered table shows, structured for comparison. Cells
// stay strings — exactly the formatted values Render prints — so a golden
// match is byte-level by construction, and numeric consumers parse with
// CellNum. Serialization is deterministic: fixed field order, fixed
// indentation, no maps anywhere.
type Result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Result converts the rendered table into its machine-readable record.
func (t *Table) Result() Result {
	return Result{ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes}
}

// CellNum parses the numeric value of cell (row, col): a plain float, or a
// percentage ("96.9%" → 96.9, sign prefixes allowed). Non-numeric cells
// ("yes", "CentOS 7") are errors that name the cell.
func (r *Result) CellNum(row, col int) (float64, error) {
	if row < 0 || row >= len(r.Rows) || col < 0 || col >= len(r.Rows[row]) {
		return 0, fmt.Errorf("%s: no cell (%d,%d)", r.ID, row, col)
	}
	s := strings.TrimSuffix(strings.TrimPrefix(r.Rows[row][col], "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: cell (%d,%d) = %q is not numeric", r.ID, row, col, r.Rows[row][col])
	}
	return v, nil
}

// RowByLabel returns the index of the first row whose first cell equals
// label.
func (r *Result) RowByLabel(label string) (int, error) {
	for i, row := range r.Rows {
		if len(row) > 0 && row[0] == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%s: no row labelled %q", r.ID, label)
}

// CellRef names a cell the way drift reports print it: row by its leading
// label, column by its header, both with indices.
func (r *Result) CellRef(row, col int) string {
	rowName := fmt.Sprint(row)
	if row < len(r.Rows) && len(r.Rows[row]) > 0 {
		rowName = fmt.Sprintf("%q (row %d)", r.Rows[row][0], row)
	}
	colName := fmt.Sprint(col)
	if col < len(r.Header) && r.Header[col] != "" {
		colName = fmt.Sprintf("%q (col %d)", r.Header[col], col)
	}
	return rowName + " / " + colName
}

// ResultSet is a full sweep's worth of artifacts plus the scale they were
// produced at. Artifacts appear in evaluation order (the order All()
// returns), so the serialization of a given sweep is unique.
type ResultSet struct {
	Scale   string   `json:"scale"`
	Results []Result `json:"results"`
}

// WriteJSON writes the set as deterministic, indented JSON with a trailing
// newline. The bytes depend only on the results — not on worker count,
// completion order, or map iteration — which is what makes `-json` output
// diffable and golden-able.
func (s *ResultSet) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadResultSet parses a -json export.
func ReadResultSet(r io.Reader) (*ResultSet, error) {
	var s ResultSet
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Select resolves a comma-separated artifact-id list against All(),
// preserving evaluation order. An empty list selects everything; an
// unknown id is an error naming it and the valid ids, so a typo fails
// loudly instead of silently running nothing.
func Select(only string) ([]Experiment, error) {
	all := All()
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	for _, e := range all {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			var ids []string
			for _, e := range all {
				ids = append(ids, e.ID)
			}
			sort.Strings(ids)
			return nil, fmt.Errorf("unknown experiment id %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var sel []Experiment
	for _, e := range all {
		if want[e.ID] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}
