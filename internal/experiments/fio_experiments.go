package experiments

import (
	"fmt"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/spdkvhost"
)

// Fig1 reproduces the motivation figure: SPDK vhost bandwidth on four
// SSDs as a function of dedicated polling cores, versus the native line.
// Workload: seq read 128K, QD256, 4 jobs (Table IV seq-r-256) per device.
func Fig1(h *Harness) *Table {
	sc := h.Scale
	nativeMBs := 4 * 3310.0
	tab := &Table{
		ID:     "fig1",
		Title:  "SPDK vhost bandwidth vs polling cores, 4 SSDs (seq read 128K QD256)",
		Header: []string{"cores", "bandwidth(MB/s)", "% of native"},
		Notes: []string{
			fmt.Sprintf("native 4-SSD line: %.0f MB/s", nativeMBs),
			"paper: at least 8 cores needed to reach ~80% of native",
		},
	}
	coreCounts := []int{1, 2, 4, 6, 8, 10}
	bws := make([]float64, len(coreCounts))
	h.each(len(coreCounts), func(i int) {
		cores := coreCounts[i]
		cfg := h.config(fmt.Sprintf("fig1/c%d", cores), int64(1000+cores))
		bws[i] = fig1Point(cfg, sc, cores)
	})
	for i, cores := range coreCounts {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(cores), f0(bws[i]), f1(bws[i] / nativeMBs * 100),
		})
	}
	return tab
}

func fig1Point(cfg bmstore.Config, sc Scale, cores int) float64 {
	cfg.NumSSDs = 4
	cfg.Kernel = spdkvhost.PolledKernel()
	tb := mustTestbed(bmstore.NewDirectTestbed(cfg))
	var bw float64
	tb.Run(func(p *sim.Proc) {
		tgt := spdkvhost.NewTarget(tb.Env, cores)
		var devs []host.BlockDevice
		for i := 0; i < 4; i++ {
			drv, err := tb.AttachNative(p, i, host.DefaultDriverConfig())
			if err != nil {
				panic(err)
			}
			var ids []int
			for c := i % cores; c < cores; c += 4 {
				ids = append(ids, c)
			}
			if len(ids) == 0 {
				ids = []int{i % cores}
			}
			devs = append(devs, tgt.NewDevice(drv.BlockDev(0), host.CentOS("3.10.0"), ids...))
		}
		res := fio.Run(p, devs, fio.Spec{
			Name: "fig1", Pattern: fio.SeqRead, BlockSize: 128 << 10,
			IODepth: 256, NumJobs: 4, Ramp: sc.FioRampSeq, Runtime: sc.FioSeq,
		})
		bw = res.BandwidthMBs()
	})
	return bw
}

// Fig8Table5 reproduces the bare-metal single-disk comparison: native disk
// vs BM-Store across the six Table IV cases (Fig. 8 IOPS/BW, Table V
// latency). Each (case, scheme) rig is an independent cell — twelve jobs.
func Fig8Table5(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig8+table5",
		Title:  "Bare-metal, 1 disk: native vs BM-Store (Table IV cases)",
		Header: []string{"case", "native kIOPS", "bms kIOPS", "native MB/s", "bms MB/s", "native lat(us)", "bms lat(us)", "bms/native"},
		Notes:  []string{"paper: 96.2-101.4% of native except rand-w-1 (82.5%); ~3us extra latency"},
	}
	cases := fio.TableIVCases(0)
	pair, tags := []*Scheme{native, bmStore}, []string{"native", "bms"}
	results := make([]*fio.Result, 2*len(cases)) // [case*2 + scheme]
	h.each(len(results), func(j int) {
		i, k := j/2, j%2
		spec := guestSpec(cases[i], sc)
		cfg := h.config(fmt.Sprintf("fig8/%s/%s", spec.Name, tags[k]), int64(100+i))
		results[j] = pair[k].runFio(cfg, fioVolume, spec)
	})
	for i, c := range cases {
		spec := guestSpec(c, sc)
		nat, bms := results[2*i], results[2*i+1]
		ratio := bms.IOPS() / nat.IOPS()
		tab.Rows = append(tab.Rows, []string{
			spec.Name,
			f1(nat.IOPS() / 1000), f1(bms.IOPS() / 1000),
			f0(nat.BandwidthMBs()), f0(bms.BandwidthMBs()),
			f1(nat.AvgLatencyUS()), f1(bms.AvgLatencyUS()),
			fmt.Sprintf("%.1f%%", ratio*100),
		})
	}
	return tab
}

// Table6 reproduces the OS/kernel matrix: BM-Store under different host
// kernels (4K randread, QD16, 8 jobs).
func Table6(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "table6",
		Title:  "BM-Store across host OS/kernel versions (4K randread QD16 x 8 jobs)",
		Header: []string{"OS", "kernel", "kIOPS", "MB/s", "lat(us)"},
		Notes: []string{
			"paper: identical IOPS on CentOS 3.10/4.19/5.4; ~6% lower on Fedora",
			"paper's CentOS latency column (394us) is fio accounting-inflated; see EXPERIMENTS.md",
		},
	}
	kernels := []host.KernelProfile{
		host.CentOS("3.10.0"), host.CentOS("4.19.127"), host.CentOS("5.4.3"),
		host.Fedora("4.9.296"), host.Fedora("5.8.15"),
	}
	spec := fio.Spec{Name: "t6", Pattern: fio.RandRead, BlockSize: 4096,
		IODepth: 16, NumJobs: 8, Ramp: 5 * sim.Millisecond, Runtime: sc.FioRand}
	results := make([]*fio.Result, len(kernels))
	h.each(len(kernels), func(i int) {
		k := kernels[i]
		cfg := h.config(fmt.Sprintf("table6/%s-%s", k.OS, k.Version), int64(600+i))
		cfg.Kernel = k
		results[i] = bmStore.runFio(cfg, Disk{Name: "v", Bytes: 1536 << 30, SSDs: []int{0}}, spec)
	})
	for i, k := range kernels {
		res := results[i]
		tab.Rows = append(tab.Rows, []string{
			k.OS, k.Version, f0(res.IOPS() / 1000), f0(res.BandwidthMBs()), f1(res.AvgLatencyUS()),
		})
	}
	return tab
}

// Fig9Table7 reproduces the single-VM comparison: VFIO vs BM-Store vs SPDK
// vhost on one disk (Fig. 9 IOPS/BW, Table VII latency). Eighteen cells:
// six cases by three schemes.
func Fig9Table7(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig9+table7",
		Title:  "Single VM, 1 disk: VFIO vs BM-Store vs SPDK vhost",
		Header: []string{"case", "vfio kIOPS", "bms kIOPS", "spdk kIOPS", "vfio lat(us)", "bms lat(us)", "spdk lat(us)", "bms/vfio", "spdk/vfio"},
		Notes:  []string{"paper: BM-Store 95.6-102.7% of VFIO (rand-w-1 81.2%); SPDK 63-96%; seq-r-256 SPDK collapse to 63%"},
	}
	cases := fio.TableIVCases(0)
	n := len(guestSchemes)
	tags := []string{"vfio", "bms", "spdk"}
	results := make([]*fio.Result, n*len(cases))
	h.each(len(results), func(j int) {
		i, k := j/n, j%n
		spec := guestSpec(cases[i], sc)
		cfg := h.config(fmt.Sprintf("fig9/%s/%s", spec.Name, tags[k]), int64(700+i))
		results[j] = guestSchemes[k].runFio(cfg, fioVolume, spec)
	})
	for i, c := range cases {
		spec := guestSpec(c, sc)
		vf, bm, sp := results[n*i], results[n*i+1], results[n*i+2]
		tab.Rows = append(tab.Rows, []string{
			spec.Name,
			f1(vf.IOPS() / 1000), f1(bm.IOPS() / 1000), f1(sp.IOPS() / 1000),
			f1(vf.AvgLatencyUS()), f1(bm.AvgLatencyUS()), f1(sp.AvgLatencyUS()),
			fmt.Sprintf("%.1f%%", bm.IOPS()/vf.IOPS()*100),
			fmt.Sprintf("%.1f%%", sp.IOPS()/vf.IOPS()*100),
		})
	}
	return tab
}

// Fig10 reproduces bare-metal scaling: total seq-read bandwidth over 1-4
// SSDs, one namespace+function per SSD.
func Fig10(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig10",
		Title:  "BM-Store total bandwidth vs number of SSDs (seq-r-256, bare metal)",
		Header: []string{"SSDs", "bandwidth(GB/s)", "per-SSD(GB/s)"},
		Notes:  []string{"paper: linear scaling, 12.6 GB/s at 4 SSDs"},
	}
	counts := []int{1, 2, 3, 4}
	totals := make([]float64, len(counts))
	h.each(len(counts), func(idx int) {
		n := counts[idx]
		cfg := h.config(fmt.Sprintf("fig10/%dssd", n), int64(900+n))
		cfg.NumSSDs = n
		bmStore.run(cfg, disksOnSSDs("v", n, 1536<<30, n), host.DefaultDriverConfig(), 4, func(p *sim.Proc, _ *sim.Env, devs []host.BlockDevice) {
			res := fio.Run(p, devs, fio.Spec{
				Name: "fig10", Pattern: fio.SeqRead, BlockSize: 128 << 10,
				IODepth: 256, NumJobs: 4 * n, Ramp: sc.FioRampSeq, Runtime: sc.FioSeq,
			})
			totals[idx] = res.BandwidthMBs()
		})
	})
	for i, n := range counts {
		total := totals[i]
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(n), fmt.Sprintf("%.2f", total/1000), fmt.Sprintf("%.2f", total/1000/float64(n)),
		})
	}
	return tab
}

// Fig11 reproduces VM scaling + fairness: 1..26 VMs, each with a 256 GB
// namespace placed round-robin over 4 SSDs, running seq reads. Each VM
// count is one cell; the VMs inside a cell share that cell's Env.
func Fig11(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig11",
		Title:  "BM-Store total bandwidth and fairness vs number of VMs (4 SSDs)",
		Header: []string{"VMs", "total(GB/s)", "min VM(MB/s)", "max VM(MB/s)", "max/min"},
		Notes:  []string{"paper: linear scaling to 12.40 GB/s at 16 VMs; balanced allocation"},
	}
	counts := []int{1, 2, 4, 8, 16, 26}
	type point struct{ total, minVM, maxVM float64 }
	pts := make([]point, len(counts))
	h.each(len(counts), func(i int) {
		n := counts[i]
		cfg := h.config(fmt.Sprintf("fig11/%dvm", n), int64(1100+n))
		pts[i].total, pts[i].minVM, pts[i].maxVM = fig11Point(cfg, sc, n)
	})
	for i := range counts {
		ratio := 0.0
		if pts[i].minVM > 0 {
			ratio = pts[i].maxVM / pts[i].minVM
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(counts[i]), fmt.Sprintf("%.2f", pts[i].total/1000),
			f0(pts[i].minVM), f0(pts[i].maxVM), fmt.Sprintf("%.2f", ratio),
		})
	}
	return tab
}

func fig11Point(cfg bmstore.Config, sc Scale, nVMs int) (total, minVM, maxVM float64) {
	cfg.NumSSDs = 4
	jobs := sc.VMScaleJobs
	dcfg := host.DefaultDriverConfig()
	dcfg.Queues = jobs
	perVM := make([]float64, nVMs)
	bmStoreVM.run(cfg, disksOnSSDs("vm", nVMs, 256<<30, 4), dcfg, jobs, func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice) {
		var done []*sim.Event
		for i := range nVMs {
			proc := env.Go(fmt.Sprintf("vmfio%d", i), func(vp *sim.Proc) {
				res := fio.Run(vp, devs[i*jobs:(i+1)*jobs], fio.Spec{
					Name: "fig11", Pattern: fio.SeqRead, BlockSize: 128 << 10,
					IODepth: sc.VMScaleQD, NumJobs: jobs,
					Ramp: sc.FioRampSeq, Runtime: sc.FioSeq,
					Seed: fmt.Sprintf("vm%d", i),
				})
				perVM[i] = res.BandwidthMBs()
			})
			done = append(done, proc.Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
	})
	minVM, maxVM = perVM[0], perVM[0]
	for _, v := range perVM {
		total += v
		if v < minVM {
			minVM = v
		}
		if v > maxVM {
			maxVM = v
		}
	}
	return total, minVM, maxVM
}

// Fig12 reproduces the tail-latency fairness figure: four VMs running the
// same case concurrently; their latency percentiles should coincide.
func Fig12(h *Harness) *Table {
	sc := h.Scale
	tab := &Table{
		ID:     "fig12",
		Title:  "Tail latency across 4 concurrent VMs (fairness)",
		Header: []string{"case", "VM", "p50(us)", "p99(us)", "p99.9(us)"},
		Notes:  []string{"paper: per-VM distributions nearly coincide in all cases"},
	}
	cases := []fio.Spec{
		{Name: "rand-r-128", Pattern: fio.RandRead, BlockSize: 4096, IODepth: 128, NumJobs: 1},
		{Name: "rand-w-16", Pattern: fio.RandWrite, BlockSize: 4096, IODepth: 16, NumJobs: 1},
	}
	perCase := make([][]*fio.Result, len(cases))
	h.each(len(cases), func(ci int) {
		c := cases[ci]
		c.Runtime = sc.FioRand * 2
		c.Ramp = 5 * sim.Millisecond
		cfg := h.config(fmt.Sprintf("fig12/%s", c.Name), int64(1200+ci))
		cfg.NumSSDs = 4
		tb := mustTestbed(bmStoreVM.Testbed(cfg))
		results := make([]*fio.Result, 4)
		tb.Run(func(p *sim.Proc) {
			// Each VM starts its fio as soon as its disk is attached, before
			// the next disk is provisioned: that order is part of the timing.
			var done []*sim.Event
			must(bmStoreVM.Attach(p, tb, disksOnSSDs("vm", 4, 256<<30, 4), host.DefaultDriverConfig(), 1, func(i int, _ *host.Driver, devs []host.BlockDevice) {
				spec := c
				spec.Seed = fmt.Sprintf("vm%d", i)
				proc := tb.Env.Go(spec.Seed, func(vp *sim.Proc) {
					results[i] = fio.Run(vp, devs, spec)
				})
				done = append(done, proc.Done())
			}))
			for _, ev := range done {
				p.Wait(ev)
			}
		})
		perCase[ci] = results
	})
	for ci, c := range cases {
		for i, r := range perCase[ci] {
			hst := &r.Read.Lat
			if c.Pattern == fio.RandWrite {
				hst = &r.Write.Lat
			}
			tab.Rows = append(tab.Rows, []string{
				c.Name, fmt.Sprintf("VM%d", i),
				f1(float64(hst.Percentile(0.50)) / 1e3),
				f1(float64(hst.Percentile(0.99)) / 1e3),
				f1(float64(hst.Percentile(0.999)) / 1e3),
			})
		}
	}
	return tab
}
