package bmstore_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each iteration regenerates the artifact through internal/experiments at
// the fast scale and reports a headline metric alongside the usual
// wall-clock numbers. `go test -bench=. -benchmem` therefore reproduces
// the whole evaluation; `bmsctl sweep` renders the same data as tables.

import (
	"strconv"
	"strings"
	"testing"

	"bmstore/internal/experiments"
)

func cell(t *experiments.Table, row, col int) float64 {
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0
	}
	s := strings.TrimSuffix(t.Rows[row][col], "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func BenchmarkFig1SPDKCoreScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(experiments.NewHarness(experiments.Fast(), 1, nil))
		// last row = 10 cores; report % of native achieved at 8 cores.
		b.ReportMetric(cell(t, 4, 2), "pct-native@8cores")
	}
}

func BenchmarkTable2FPGAResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		b.ReportMetric(float64(len(t.Rows)), "configs")
	}
}

func BenchmarkFig8BareMetal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig8Table5(experiments.NewHarness(experiments.Fast(), 1, nil))
		// rand-r-128 BM-Store kIOPS.
		b.ReportMetric(cell(t, 1, 2), "bms-randr128-kIOPS")
	}
}

func BenchmarkTable6KernelMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table6(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 0, 2), "centos310-kIOPS")
	}
}

func BenchmarkFig9SingleVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9Table7(experiments.NewHarness(experiments.Fast(), 1, nil))
		// seq-r-256 SPDK/VFIO ratio: the paper's anomaly cell.
		b.ReportMetric(cell(t, 4, 8), "spdk-seqr-pct-of-vfio")
	}
}

func BenchmarkFig10SSDScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig10(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 3, 1), "GBs@4SSD")
	}
}

func BenchmarkFig11VMScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 4, 1), "GBs@16VM")
	}
}

func BenchmarkFig12TailFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig12(experiments.NewHarness(experiments.Fast(), 1, nil))
		// p99 spread across the four VMs for rand-r-128.
		lo, hi := 1e18, 0.0
		for r := 0; r < 4; r++ {
			v := cell(t, r, 3)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		b.ReportMetric(hi/lo, "p99-max/min")
	}
}

func BenchmarkFig13aTPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig13a(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 1, 3), "bms-normalized")
	}
}

func BenchmarkFig13bSysbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig13bTable8(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 1, 4), "bms-qps-normalized")
	}
}

func BenchmarkFig14MixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig14(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 1, 1), "bms-ycsb-ops")
	}
}

func BenchmarkTable9Fig15HotUpgrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table9Fig15(experiments.NewHarness(experiments.Fast(), 1, nil))
		b.ReportMetric(cell(t, 0, 4), "bmstore-proc-ms")
	}
}

func BenchmarkTCOAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TCO()
		_ = t
	}
}
