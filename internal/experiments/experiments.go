// Package experiments contains one runnable harness per table and figure
// of the paper's evaluation (§V). Each experiment builds the rig of one of
// the compared storage stacks (native, VFIO, BM-Store, BM-Store in a VM or
// SPDK vhost; the scheme table in schemes.go), runs the paper's workload,
// and returns typed rows that `bmsctl sweep` renders and bench_test.go
// exercises. EXPERIMENTS.md records paper-vs-measured for each one.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// mustTestbed unwraps a testbed constructor result. Experiment configs are
// fixed and known-good, so a construction error is a bug in the harness.
func mustTestbed(tb *bmstore.Testbed, err error) *bmstore.Testbed {
	if err != nil {
		panic(err)
	}
	return tb
}

// must stops an experiment whose provisioning step failed: a volume that was
// never created or bound — a fault schedule armed through Harness.WithFaults
// can do that — must not be measured as if it had been.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Scale selects run lengths and dataset cuts: Fast for tests, benches and
// the numbers in EXPERIMENTS.md (the goldens pin it), Full for longer
// windows over larger datasets. Between the two, the fio figures move by at
// most 2.3 % a cell (fig1 by 9.9 % at one core), but the application
// figures move by multiples (fig13a's BM-Store/VFIO ratio from 1.0 to 1.8),
// and at full scale they also swing with the seed: see ROADMAP item 25.
type Scale struct {
	Name        string
	FioRand     sim.Time // runtime for random-I/O fio cases
	FioSeq      sim.Time // runtime for bandwidth (sequential) cases
	FioRampSeq  sim.Time
	AppLoadCut  int // divide app dataset sizes by this
	AppDuration sim.Time
	VMScaleQD   int // per-VM iodepth in the 26-VM experiment
	VMScaleJobs int
	// FWCommitMin/Max override the SSD firmware activation window in the
	// hot-upgrade experiment (a device property; full scale keeps the real
	// 5-8 s).
	FWCommitMin sim.Time
	FWCommitMax sim.Time
}

// Fast returns the quick-turnaround scale.
func Fast() Scale {
	return Scale{
		Name:        "fast",
		FioRand:     30 * sim.Millisecond,
		FioSeq:      400 * sim.Millisecond,
		FioRampSeq:  200 * sim.Millisecond,
		AppLoadCut:  4,
		AppDuration: 400 * sim.Millisecond,
		VMScaleQD:   64,
		VMScaleJobs: 2,
		FWCommitMin: 1200 * sim.Millisecond,
		FWCommitMax: 1800 * sim.Millisecond,
	}
}

// Full returns the publication scale.
func Full() Scale {
	return Scale{
		Name:        "full",
		FioRand:     150 * sim.Millisecond,
		FioSeq:      1200 * sim.Millisecond,
		FioRampSeq:  300 * sim.Millisecond,
		AppLoadCut:  1,
		AppDuration: 1500 * sim.Millisecond,
		VMScaleQD:   128,
		VMScaleJobs: 4,
		FWCommitMin: 5 * sim.Second,
		FWCommitMax: 8 * sim.Second,
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // "fig8", "table5", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprint(w, c, "  ")
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, wd := range widths {
		fmt.Fprint(w, strings.Repeat("-", wd), "  ")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// --- shared rig builders ---

// fioDevs builds one BlockDevice per fio job from a driver.
func fioDevs(drv *host.Driver, jobs int) []host.BlockDevice {
	devs := make([]host.BlockDevice, jobs)
	for i := range devs {
		devs[i] = drv.BlockDev(i)
	}
	return devs
}

// guestSpec applies the scale's runtimes to a Table IV case.
func guestSpec(spec fio.Spec, sc Scale) fio.Spec {
	if spec.Pattern == fio.SeqRead || spec.Pattern == fio.SeqWrite {
		spec.Runtime = sc.FioSeq
		spec.Ramp = sc.FioRampSeq
	} else {
		spec.Runtime = sc.FioRand
		spec.Ramp = 5 * sim.Millisecond
	}
	return spec
}
