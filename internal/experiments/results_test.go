package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func sampleResult() Result {
	return Result{
		ID:     "fig0",
		Title:  "sample",
		Header: []string{"case", "kIOPS", "ratio"},
		Rows: [][]string{
			{"rand-r-1", "48.7", "96.9%"},
			{"seq-w-256", "11.1", "+14.3%"},
			{"odd", "yes", "-6.5%"},
		},
		Notes: []string{"a note"},
	}
}

func TestCellNumParsing(t *testing.T) {
	r := sampleResult()
	for _, tc := range []struct {
		row, col int
		want     float64
		wantErr  bool
	}{
		{row: 0, col: 1, want: 48.7},    // plain float
		{row: 0, col: 2, want: 96.9},    // percentage
		{row: 1, col: 2, want: 14.3},    // signed percentage
		{row: 2, col: 2, want: -6.5},    // negative percentage
		{row: 0, col: 0, wantErr: true}, // row label: not numeric
		{row: 2, col: 1, wantErr: true}, // "yes": not numeric
		{row: 9, col: 0, wantErr: true}, // row out of range
		{row: 0, col: 9, wantErr: true}, // col out of range
	} {
		v, err := r.CellNum(tc.row, tc.col)
		if tc.wantErr {
			if err == nil {
				t.Errorf("CellNum(%d,%d) = %v, want error", tc.row, tc.col, v)
			}
			continue
		}
		if err != nil || v != tc.want {
			t.Errorf("CellNum(%d,%d) = %v, %v; want %v", tc.row, tc.col, v, err, tc.want)
		}
	}
}

func TestRowByLabelAndCellRef(t *testing.T) {
	r := sampleResult()
	row, err := r.RowByLabel("seq-w-256")
	if err != nil || row != 1 {
		t.Fatalf("RowByLabel = %d, %v", row, err)
	}
	if _, err := r.RowByLabel("nope"); err == nil {
		t.Fatal("RowByLabel found a nonexistent row")
	}
	ref := r.CellRef(1, 2)
	for _, frag := range []string{"seq-w-256", "ratio", "row 1", "col 2"} {
		if !strings.Contains(ref, frag) {
			t.Fatalf("CellRef %q missing %q", ref, frag)
		}
	}
}

// Serialization is deterministic and round-trips exactly — the property
// golden comparison is built on.
func TestResultSetJSONDeterministicRoundTrip(t *testing.T) {
	set := &ResultSet{Scale: "fast", Results: []Result{sampleResult(), {ID: "fig0b", Header: []string{"x"}, Rows: [][]string{{"1"}}}}}
	var a, b bytes.Buffer
	if err := set.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := set.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSON not deterministic")
	}
	if !bytes.HasSuffix(a.Bytes(), []byte("\n")) {
		t.Fatal("export missing trailing newline")
	}
	back, err := ReadResultSet(&a)
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := back.WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Fatal("round trip changed bytes")
	}
	// Unknown fields are rejected, so schema drift in an export fails loudly.
	if _, err := ReadResultSet(strings.NewReader(`{"scale":"fast","bogus":1,"results":[]}`)); err == nil {
		t.Fatal("ReadResultSet accepted unknown field")
	}
}

func TestTableResultMirrorsTable(t *testing.T) {
	tab := Table1()
	res := tab.Result()
	if res.ID != tab.ID || res.Title != tab.Title || len(res.Rows) != len(tab.Rows) {
		t.Fatalf("Result() = %+v", res)
	}
	encode := func() []byte {
		var buf bytes.Buffer
		if err := (&ResultSet{Results: []Result{res}}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("WriteJSON not deterministic")
	}
}

// Select: empty selects everything in evaluation order; subsets preserve
// that order; an unknown id errors naming it and the valid ids instead of
// silently running nothing.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d experiments, %v", len(all), err)
	}
	sel, err := Select(" fig9 , fig1 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].ID != "fig1" || sel[1].ID != "fig9" {
		t.Fatalf("Select kept %v, want evaluation order fig1,fig9", []string{sel[0].ID, sel[1].ID})
	}
	_, err = Select("fig1,fig99")
	if err == nil {
		t.Fatal("Select accepted an unknown id")
	}
	for _, frag := range []string{"fig99", "valid:", "fig8", "abl-qos"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("Select error %q missing %q", err, frag)
		}
	}
}
