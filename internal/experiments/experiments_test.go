package experiments_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"bmstore/internal/experiments"
)

func num(t *testing.T, tab *experiments.Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := experiments.Table1()
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "TABLE1") || !strings.Contains(out, "Manageability") {
		t.Fatalf("render output:\n%s", out)
	}
	// Columns aligned: every BM-Store feature is "yes".
	for _, r := range tab.Rows {
		if r[6] != "yes" {
			t.Fatalf("BM-Store missing feature %s", r[0])
		}
	}
}

// The bare-metal comparison is the paper's headline: BM-Store within a few
// percent of native everywhere except the latency-magnified rand-w-1.
func TestFig8ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := experiments.Fig8Table5(experiments.NewHarness(experiments.Fast(), 1, nil))
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		ratio := num(t, tab, i, 7)
		low := 90.0
		if r[0] == "rand-w-1" {
			low = 75.0 // paper: 82.5%
		}
		if ratio < low || ratio > 104 {
			t.Errorf("%s: bms/native %.1f%%, outside [%0.f,104]", r[0], ratio, low)
		}
		natLat, bmsLat := num(t, tab, i, 5), num(t, tab, i, 6)
		if r[0] == "rand-r-1" || r[0] == "rand-w-1" {
			if d := bmsLat - natLat; d < 1.5 || d > 5.5 {
				t.Errorf("%s: latency delta %.2fus, paper ~3us", r[0], d)
			}
		}
	}
}

// SPDK's seq-r collapse and BM-Store's near-VFIO story (Fig. 9).
func TestFig9ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := experiments.Fig9Table7(experiments.NewHarness(experiments.Fast(), 1, nil))
	for i, r := range tab.Rows {
		bms := num(t, tab, i, 7)
		spdk := num(t, tab, i, 8)
		if bms < 85 || bms > 106 {
			t.Errorf("%s: BM-Store %.1f%% of VFIO", r[0], bms)
		}
		switch r[0] {
		case "seq-r-256":
			if spdk < 55 || spdk > 72 {
				t.Errorf("seq-r-256: SPDK %.1f%% of VFIO, paper ~63%%", spdk)
			}
		case "seq-w-256", "rand-w-16":
			if spdk > 90 {
				t.Errorf("%s: SPDK %.1f%%, should lag VFIO", r[0], spdk)
			}
		}
		// BM-Store never loses to SPDK except possibly the tiny-latency
		// QD1 cases, where the paper also sees a wash.
		if !strings.HasSuffix(r[0], "-1") && bms < spdk {
			t.Errorf("%s: BM-Store (%.1f%%) behind SPDK (%.1f%%)", r[0], bms, spdk)
		}
	}
}

// Hot-upgrade availability: zero errors and bounded engine processing.
func TestTable9ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	tab := experiments.Table9Fig15(experiments.NewHarness(experiments.Fast(), 1, nil))
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 patterns x 2 upgrades)", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if errs := num(t, tab, i, 6); errs != 0 {
			t.Errorf("%s upgrade %s: %v tenant I/O errors", r[0], r[1], errs)
		}
		if proc := num(t, tab, i, 4); proc < 60 || proc > 250 {
			t.Errorf("engine processing %.0fms, paper ~100ms", proc)
		}
		total, reset := num(t, tab, i, 2), num(t, tab, i, 3)
		if total < reset {
			t.Errorf("total %.0f < reset %.0f", total, reset)
		}
	}
	// The Fig. 15 timeline must show the dip: some bin near zero.
	foundTimeline := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "kIOPS/bin") && strings.Contains(n, " 0.0") {
			foundTimeline = true
		}
	}
	if !foundTimeline {
		t.Error("fig15 timeline shows no I/O pause dip")
	}
}
