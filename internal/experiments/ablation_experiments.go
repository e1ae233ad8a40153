package experiments

import (
	"fmt"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// AblationZeroCopy quantifies the paper's DMA-request-routing design
// choice (§IV-C): with the global-PRP zero-copy path disabled, back-end
// data stages through engine DRAM, and the aggregate bandwidth of four
// SSDs collapses to the staging memory's bandwidth — exactly the
// "duplicate data copies will seriously affect I/O performance" argument.
func AblationZeroCopy(h *Harness) *Table {
	tab := &Table{
		ID:     "abl-zerocopy",
		Title:  "Ablation: global-PRP zero-copy routing vs store-and-forward staging",
		Header: []string{"engine mode", "4-SSD seq read (GB/s)", "rand-r-1 lat (us)"},
		Notes:  []string{"store-and-forward staged through one DDR4 channel (6.4 GB/s)"},
	}
	modes := []bool{false, true}
	type point struct{ bw, lat float64 }
	pts := make([]point, len(modes))
	h.each(len(modes), func(i int) {
		name := "zerocopy"
		if modes[i] {
			name = "saf"
		}
		cfg := h.config(fmt.Sprintf("abl-zerocopy/%s", name), 1700)
		pts[i].bw, pts[i].lat = zeroCopyPoint(cfg, h.Scale, modes[i])
	})
	for i, mode := range modes {
		name := "zero-copy (BM-Store)"
		if mode {
			name = "store-and-forward"
		}
		tab.Rows = append(tab.Rows, []string{name, fmt.Sprintf("%.2f", pts[i].bw/1000), f1(pts[i].lat)})
	}
	return tab
}

func zeroCopyPoint(cfg bmstore.Config, sc Scale, storeAndForward bool) (mbs, latUS float64) {
	cfg.NumSSDs = 4
	cfg.Engine.StoreAndForward = storeAndForward
	bmStore.run(cfg, disksOnSSDs("v", 4, 1536<<30, 4), host.DefaultDriverConfig(), 4, func(p *sim.Proc, _ *sim.Env, devs []host.BlockDevice) {
		res := fio.Run(p, devs, fio.Spec{
			Name: "ablz", Pattern: fio.SeqRead, BlockSize: 128 << 10,
			IODepth: 256, NumJobs: 16, Ramp: sc.FioRampSeq, Runtime: sc.FioSeq,
		})
		mbs = res.BandwidthMBs()
		lres := fio.Run(p, devs[:1], fio.Spec{
			Name: "ablz-lat", Pattern: fio.RandRead, BlockSize: 4096,
			IODepth: 1, NumJobs: 1, Ramp: sim.Millisecond, Runtime: 10 * sim.Millisecond,
		})
		latUS = lres.AvgLatencyUS()
	})
	return mbs, latUS
}

// AblationQoS demonstrates the QoS module (Fig. 5): a noisy neighbour
// floods sequential writes while a latency-sensitive tenant does QD1
// reads; capping the neighbour restores the victim's latency.
func AblationQoS(h *Harness) *Table {
	tab := &Table{
		ID:     "abl-qos",
		Title:  "Ablation: QoS isolation against a noisy neighbour (shared SSD)",
		Header: []string{"neighbour QoS", "victim p99 read lat (us)", "neighbour MB/s"},
	}
	caps := []bool{false, true}
	type point struct{ p99, bw float64 }
	pts := make([]point, len(caps))
	h.each(len(caps), func(i int) {
		name := "unlimited"
		if caps[i] {
			name = "capped"
		}
		cfg := h.config(fmt.Sprintf("abl-qos/%s", name), 1800)
		pts[i].p99, pts[i].bw = qosPoint(cfg, h.Scale, caps[i])
	})
	for i, capped := range caps {
		name := "unlimited"
		if capped {
			name = "capped 200 MB/s"
		}
		tab.Rows = append(tab.Rows, []string{name, f1(pts[i].p99), f0(pts[i].bw)})
	}
	return tab
}

func qosPoint(cfg bmstore.Config, sc Scale, capped bool) (victimP99US, neighbourMBs float64) {
	cfg.NumSSDs = 1
	tb := mustTestbed(bmstore.NewBMStoreTestbed(cfg))
	tb.Run(func(p *sim.Proc) {
		must(tb.Console.CreateNamespace(p, "victim", 256<<30, []int{0}))
		must(tb.Console.CreateNamespace(p, "noisy", 256<<30, []int{0}))
		must(tb.Console.Bind(p, "victim", 0))
		must(tb.Console.Bind(p, "noisy", 1))
		if capped {
			if err := tb.Console.SetQoS(p, "noisy", 0, 200e6); err != nil {
				panic(err)
			}
		}
		vd, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			panic(err)
		}
		nd, err := tb.AttachTenant(p, 1, host.DefaultDriverConfig())
		if err != nil {
			panic(err)
		}
		var nres *fio.Result
		noisy := tb.Go("noisy", func(np *sim.Proc) {
			nres = fio.Run(np, fioDevs(nd, 4), fio.Spec{
				Name: "noise", Pattern: fio.SeqRead, BlockSize: 128 << 10,
				IODepth: 64, NumJobs: 4, Ramp: 10 * sim.Millisecond,
				Runtime: sc.FioRand * 3, Seed: "noisy",
			})
		})
		vres := fio.Run(p, []host.BlockDevice{vd.BlockDev(0)}, fio.Spec{
			Name: "victim", Pattern: fio.RandRead, BlockSize: 4096,
			IODepth: 1, NumJobs: 1, Ramp: 10 * sim.Millisecond,
			Runtime: sc.FioRand * 2, Seed: "victim",
		})
		victimP99US = float64(vres.Read.Lat.Percentile(0.99)) / 1e3
		p.Wait(noisy.Done())
		neighbourMBs = nres.BandwidthMBs()
	})
	return victimP99US, neighbourMBs
}
