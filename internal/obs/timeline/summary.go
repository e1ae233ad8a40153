package timeline

import (
	"fmt"
	"io"
	"strings"
)

// us renders nanoseconds as fractional microseconds for human output.
func us(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e3) }

type stageAcc struct {
	name  string
	total int64
	n     int
}

// accumulate folds every record's partition stages (and, separately, the
// nand/dma sub-intervals) into per-stage totals. Order of first appearance
// follows the fixed Stages order, so output ordering is path order.
func accumulate(recs []*Rec, sub bool) ([]*stageAcc, int64) {
	var order []*stageAcc
	byName := map[string]*stageAcc{}
	var e2e int64
	var stages []StageSpan
	for _, rec := range recs {
		e2e += rec.E2E()
		stages = rec.Stages(stages)
		for _, st := range stages {
			if st.Sub != sub {
				continue
			}
			acc := byName[st.Name]
			if acc == nil {
				acc = &stageAcc{name: st.Name}
				byName[st.Name] = acc
				order = append(order, acc)
			}
			acc.total += st.To - st.From
			acc.n++
		}
	}
	return order, e2e
}

func meanWaits(recs []*Rec) [NumWaits]int64 {
	var sums [NumWaits]int64
	if len(recs) == 0 {
		return sums
	}
	for _, rec := range recs {
		for w := Wait(0); w < NumWaits; w++ {
			sums[w] += rec.Waits[w]
		}
	}
	for w := range sums {
		sums[w] /= int64(len(recs))
	}
	return sums
}

// WriteSummary renders the merged tail-attribution summary for the rigs:
// counts, the per-stage comparison of the worst-K set against the sampled
// population, mean wait attribution, and the stage that dominates the tail.
func WriteSummary(w io.Writer, rigs []RigDump) error {
	var samples, worst []*Rec
	var requests uint64
	for _, rig := range rigs {
		samples = append(samples, rig.Samples...)
		worst = append(worst, rig.Worst...)
		requests += rig.Requests
	}
	if _, err := fmt.Fprintf(w, "timelines: %d rig(s), %d sampled, %d worst-K record(s), %d request(s) observed\n",
		len(rigs), len(samples), len(worst), requests); err != nil {
		return err
	}
	if len(samples) == 0 && len(worst) == 0 {
		_, err := fmt.Fprintln(w, "  (no timelines retained)")
		return err
	}
	wStages, wE2E := accumulate(worst, false)
	sStages, sE2E := accumulate(samples, false)
	sByName := map[string]*stageAcc{}
	for _, acc := range sStages {
		sByName[acc.name] = acc
	}
	if len(worst) > 0 {
		fmt.Fprintf(w, "tail attribution — worst-%d vs sampled population, by stage:\n", len(worst))
		fmt.Fprintf(w, "  %-10s %14s %8s %16s\n", "stage", "worst mean(us)", "share", "sampled mean(us)")
		var top *stageAcc
		for _, acc := range wStages {
			share := 0.0
			if wE2E > 0 {
				share = 100 * float64(acc.total) / float64(wE2E)
			}
			sampledMean := "-"
			if s := sByName[acc.name]; s != nil && s.n > 0 {
				sampledMean = us(s.total / int64(s.n))
			}
			fmt.Fprintf(w, "  %-10s %14s %7.1f%% %16s\n",
				acc.name, us(acc.total/int64(acc.n)), share, sampledMean)
			if top == nil || acc.total > top.total {
				top = acc
			}
		}
		if top != nil && wE2E > 0 {
			fmt.Fprintf(w, "  tail dominated by %s (%.1f%% of worst-K end-to-end time)\n",
				top.name, 100*float64(top.total)/float64(wE2E))
		}
		wWaits := meanWaits(worst)
		fmt.Fprintf(w, "  waits (worst-K mean, us): %s=%s %s=%s %s=%s %s=%s\n",
			WaitHostQ, us(wWaits[WaitHostQ]), WaitQoS, us(wWaits[WaitQoS]),
			WaitBackend, us(wWaits[WaitBackend]), WaitDie, us(wWaits[WaitDie]))
	}
	if len(samples) > 0 {
		fmt.Fprintf(w, "sampled population: %d record(s), mean e2e %s us\n",
			len(samples), us(sE2E/int64(len(samples))))
	}
	return nil
}

// WriteWaterfall renders one request's per-stage waterfall: each stage as a
// positioned bar on a shared time axis from start to finish, with the wait
// attribution underneath.
func WriteWaterfall(w io.Writer, rig string, rec *Rec) error {
	const width = 48
	e2e := rec.E2E()
	if _, err := fmt.Fprintf(w, "rig %s seq %d %s qd=%d e2e=%s us\n",
		rig, rec.Seq, rec.OpString(), rec.QD, us(e2e)); err != nil {
		return err
	}
	if e2e <= 0 {
		_, err := fmt.Fprintln(w, "  (empty timeline)")
		return err
	}
	start := rec.TS[PtStart]
	var stages []StageSpan
	for _, st := range rec.Stages(stages) {
		off := int((st.From - start) * width / e2e)
		end := int((st.To - start) * width / e2e)
		if end > width {
			end = width
		}
		n := end - off
		if n < 1 && st.To > st.From {
			n = 1
		}
		bar := strings.Repeat(" ", off) + strings.Repeat("#", n)
		fmt.Fprintf(w, "  %-10s %12s us |%-*s|\n", st.Name, us(st.To-st.From), width, bar)
	}
	_, err := fmt.Fprintf(w, "  waits (us): %s=%s %s=%s %s=%s %s=%s\n",
		WaitHostQ, us(rec.Waits[WaitHostQ]), WaitQoS, us(rec.Waits[WaitQoS]),
		WaitBackend, us(rec.Waits[WaitBackend]), WaitDie, us(rec.Waits[WaitDie]))
	return err
}
