package main

import (
	"fmt"
	"time"

	"bmstore"
	"bmstore/internal/engine"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/hostmem"
	"bmstore/internal/nvme"
	"bmstore/internal/obs"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// The layer probes time public calls into single packages from outside.
// They do not depend on the workload: a traced run of any workload runs
// them all, after its measured region, one span each.

// probeOps is how many operations a micro probe times in all: five batches,
// of which the median is reported.
const probeOps = 200_000

var sink int // keeps probe results live

// timeOps runs fn(n) in five batches and returns the median ns per op.
func timeOps(o runOpts, fn func(n int)) float64 {
	n := probeOps / 5
	if o.quick {
		n /= 100
	}
	fn(n / 10) // warm
	var ns []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn(n)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// runProbes fills the workload-independent per-layer metrics.
func runProbes(o runOpts, sp *spans, layer map[string]float64) {
	root := sp.begin(span{}, laneProbe, "probes")
	defer root.end()
	probe := func(name string, fn func() float64) {
		s := sp.begin(root, laneProbe, "probe:"+name)
		layer[name] = fn()
		s.end()
	}

	// sim: Schedule+Run with a shallow and a deep queue, and a process
	// sleep, which is a goroutine hand-off each way.
	sched := func(pending int) func() float64 {
		return func() float64 {
			return timeOps(o, func(n int) {
				env := sim.NewEnv(1)
				left := n
				var tick func()
				tick = func() {
					if left > 0 {
						left--
						env.Schedule(sim.Time(100+left%pending), tick)
					}
				}
				for i := 0; i < pending && left > 0; i++ {
					left--
					env.Schedule(sim.Time(i), tick)
				}
				env.Run()
			})
		}
	}
	probe("sim.sched_ns_per_event_shallow", sched(64))
	probe("sim.sched_ns_per_event_deep", sched(4096))
	probe("sim.proc_sleep_ns", func() float64 {
		return timeOps(o, func(n int) {
			env := sim.NewEnv(1)
			for i := 0; i < 16; i++ {
				env.Go("sleeper", func(p *sim.Proc) {
					for j := 0; j < n/16; j++ {
						p.Sleep(100 * sim.Nanosecond)
					}
				})
			}
			env.Run()
		})
	})

	// hostmem: 4 KiB copies over 256 pages that are already touched.
	mem := hostmem.New(1 << 30)
	base := mem.AllocPages(256)
	page := make([]byte, hostmem.PageSize)
	for i := 0; i < 256; i++ {
		mem.Write(base+uint64(i)*hostmem.PageSize, page)
	}
	probe("hostmem.write4k_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				mem.Write(base+uint64(i&255)*hostmem.PageSize, page)
			}
		})
	})
	probe("hostmem.read4k_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				mem.Read(base+uint64(i&255)*hostmem.PageSize, page)
			}
		})
	})

	// nvme: PRP build and walk for a 128 KiB and a 4 KiB transfer, and the
	// SQE and CQE codecs.
	buf := mem.AllocPages(32)
	pw := &listPage{mem: mem, page: mem.AllocPages(1)}
	probe("nvme.prp_build_128k_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				_, prp2, _ := nvme.BuildPRPs(pw, buf, 128<<10)
				sink += int(prp2)
			}
		})
	})
	prp1, prp2, _ := nvme.BuildPRPs(pw, buf, 128<<10)
	var segs []nvme.Segment
	walk := func(bytes int) func() float64 {
		return func() float64 {
			return timeOps(o, func(n int) {
				for i := 0; i < n; i++ {
					var err error
					if segs, err = nvme.WalkPRPsInto(segs[:0], mem, prp1, prp2, bytes); err != nil {
						panic(err)
					}
				}
			})
		}
	}
	probe("nvme.prp_walk_128k_ns", walk(128<<10))
	probe("nvme.prp_walk_4k_ns", walk(4<<10))
	probe("nvme.sqe_codec_ns", func() float64 {
		var b [nvme.SQESize]byte
		cmd := nvme.Command{Opcode: 2, NSID: 1, PRP1: prp1, PRP2: prp2}
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				cmd.CID = uint16(i)
				cmd.Encode(&b)
				sink += int(nvme.DecodeCommand(&b).CID)
			}
		})
	})
	probe("nvme.cqe_codec_ns", func() float64 {
		var b [nvme.CQESize]byte
		cpl := nvme.Completion{SQID: 1, Phase: true}
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				cpl.CID = uint16(i)
				cpl.Encode(&b)
				sink += int(nvme.DecodeCompletion(&b).CID)
			}
		})
	})

	// pcie: a port on a x4 link under a root complex. A posted write costs
	// one delivery event; a DMA is two bandwidth reservations and no event.
	env := sim.NewEnv(1)
	port := pcie.Connect(env, pcie.NewLink(env, 4, 300*sim.Nanosecond), pcie.NewRoot(env, mem), nil, nil, nopDevice{})
	probe("pcie.mmio_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i += 64 {
				for j := 0; j < 64; j++ {
					port.MMIOWrite(0, 0x1000, uint64(i))
				}
				env.Run()
			}
		})
	})
	probe("pcie.dma_4k_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				sink += int(port.DMAWrite(buf, 4<<10, nil))
			}
		})
	})
	probe("pcie.dma_128k_ns", func() float64 {
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				sink += int(port.DMARead(buf, 128<<10, nil))
			}
		})
	})

	// engine: the chunk mapping lookup every command pays.
	mt := engine.NewMappingTable(8, 1<<30, 4096)
	for i := 0; i < mt.Slots(); i++ {
		if err := mt.Set(i, engine.Entry{SSD: i & 3, Chunk: i}); err != nil {
			panic(err)
		}
	}
	var ext []engine.Extent
	probe("engine.mapping_lookup_ns", func() float64 {
		lbas := uint64(mt.Slots()) * mt.ChunkLBAs()
		return timeOps(o, func(n int) {
			for i := 0; i < n; i++ {
				var err error
				if ext, err = mt.LookupRangeInto(ext[:0], uint64(i)*7919%(lbas-8), 8); err != nil {
					panic(err)
				}
			}
		})
	})

	rigProbes(o, sp, root, layer)
}

// listPage is a PageWriter that hands out one page again and again, so the
// build probe times the list writes and not the allocator's growth.
type listPage struct {
	mem  *hostmem.Memory
	page uint64
}

func (l *listPage) AllocPages(int) uint64          { return l.page }
func (l *listPage) WriteU64(addr uint64, v uint64) { l.mem.WriteU64(addr, v) }

type nopDevice struct{}

func (nopDevice) RegWrite(pcie.FuncID, uint64, uint64) {}

// miniRun builds a one-tenant rig, warms it and runs spec on it, and
// returns host us and kernel events per I/O. native selects the
// direct-attached rig (host+pcie+ssd, no engine).
func miniRun(o runOpts, native bool, ssds int, spec fio.Spec, opts ...bmstore.Option) (usPerIO, eventsPerIO float64) {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = o.seed
	cfg.NumSSDs = ssds
	build := bmstore.NewBMStoreTestbed
	if native {
		build = bmstore.NewDirectTestbed
	}
	tb, err := build(cfg, opts...)
	if err != nil {
		panic(err)
	}
	spec = quickSpec(o, spec)
	tb.Run(func(p *sim.Proc) {
		var drivers []*host.Driver
		var devs []host.BlockDevice
		for i := 0; i < ssds; i++ {
			var drv *host.Driver
			if native {
				drv, err = tb.AttachNative(p, i, host.DefaultDriverConfig())
			} else {
				vol := fmt.Sprintf("vol%d", i)
				if err = tb.Console.CreateNamespace(p, vol, 1536<<30, []int{i}); err == nil {
					err = tb.Console.Bind(p, vol, uint8(i))
				}
				if err == nil {
					drv, err = tb.AttachTenant(p, pcie.FuncID(i), host.DefaultDriverConfig())
				}
			}
			if err != nil {
				panic(err)
			}
			drivers = append(drivers, drv)
			for j := 0; j < spec.NumJobs/ssds; j++ {
				devs = append(devs, drv.BlockDev(j))
			}
		}
		completed := func() (n uint64) {
			for _, d := range drivers {
				n += d.Counters().Completed
			}
			return n
		}
		warm := spec
		warm.Name, warm.Runtime = "warm", spec.Runtime/4
		fio.Run(p, devs, warm)
		c0, e0, t0 := completed(), tb.Env.Events(), time.Now()
		fio.Run(p, devs, spec)
		n := float64(completed() - c0)
		usPerIO = ratio(float64(time.Since(t0).Nanoseconds())/1e3, n)
		eventsPerIO = ratio(float64(tb.Env.Events()-e0), n)
	})
	return usPerIO, eventsPerIO
}

// rigProbes are the probes that need a whole rig: the same two phases on
// the native rig (what the engine adds is the difference), and rand-r-128
// under each observer and on the classic path, as ratios to bare. The
// variants run interleaved, three times over, and each ratio is the median
// of its three.
func rigProbes(o runOpts, sp *spans, root span, layer map[string]float64) {
	randr := fio.Spec{Name: "randr128", Pattern: fio.RandRead, BlockSize: 4 << 10, IODepth: 128, NumJobs: 4,
		Runtime: 40 * sim.Millisecond, Ramp: 2 * sim.Millisecond}
	seqr := fio.Spec{Name: "seqr256", Pattern: fio.SeqRead, BlockSize: 128 << 10, IODepth: 256, NumJobs: 16,
		Runtime: 60 * sim.Millisecond, Ramp: 50 * sim.Millisecond}
	// The classic path costs about three times the fused one per I/O, so
	// the variants that force it run a shorter window.
	short := randr
	short.Runtime = 15 * sim.Millisecond

	s := sp.begin(root, laneProbe, "probe:engine.added")
	nat4, natEv4 := miniRun(o, true, 1, randr)
	bms4, bmsEv4 := miniRun(o, false, 1, randr)
	nat128, natEv128 := miniRun(o, true, 4, seqr)
	bms128, bmsEv128 := miniRun(o, false, 4, seqr)
	s.end()
	layer["host.native_us_per_io_4k"] = nat4
	layer["host.native_us_per_io_128k"] = nat128
	layer["engine.added_us_per_io_4k"] = bms4 - nat4
	layer["engine.added_us_per_io_128k"] = bms128 - nat128
	layer["engine.added_events_per_io_4k"] = bmsEv4 - natEv4
	layer["engine.added_events_per_io_128k"] = bmsEv128 - natEv128

	s = sp.begin(root, laneProbe, "probe:observers")
	var classic, digest, metrics, tl []float64
	reps := 3
	if o.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		bare, _ := miniRun(o, false, 1, randr)
		c, _ := miniRun(o, false, 1, short, bmstore.WithClassicPath())
		d, _ := miniRun(o, false, 1, short, bmstore.WithTrace(trace.NewDigest()))
		mt, _ := miniRun(o, false, 1, randr, bmstore.WithMetrics(obs.NewRegistry()))
		t, _ := miniRun(o, false, 1, randr, bmstore.WithTimeline(telemetry))
		classic = append(classic, ratio(c, bare))
		digest = append(digest, ratio(d, bare))
		metrics = append(metrics, (ratio(mt, bare)-1)*100)
		tl = append(tl, (ratio(t, bare)-1)*100)
	}
	s.end()
	layer["engine.classic_path_ratio"] = median(classic)
	layer["trace.digest_overhead_ratio"] = median(digest)
	layer["obs.metrics_overhead_pct"] = median(metrics)
	layer["obs.timeline_overhead_pct"] = median(tl)
}
