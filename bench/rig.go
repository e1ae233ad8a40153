package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"bmstore"
	"bmstore/internal/host"
	"bmstore/internal/obs"
	"bmstore/internal/obs/timeline"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// telemetry is PR 8's "always-on" observer configuration: 1-in-64 sampled
// request timelines plus worst-16 tail forensics, with the metrics
// registry the testbed builds to carry them. rand4k-telemetry runs under
// it untraced; a traced run attaches it to every rig, because the modelled
// counters and the die waits are read from that registry.
var telemetry = timeline.Config{SampleEvery: 64, WorstK: 16}

// rigWorkload is a workload driven on one BM-Store testbed: set-up builds
// the rig and prepares it, then a simulation process runs rounds of phases
// while the host steps the clock in slices and times each one.
type rigWorkload struct {
	ssds      int // one namespace, tenant function and driver per SSD
	jobs      int // block devices (queues) taken from each driver
	nsBytes   uint64
	capture   bool // materialise payload bytes
	guest     bool // tenants are KVM guests
	telemetry bool // observers on in the untraced run too
	slice     sim.Time
	// prepare runs after the drivers attach, inside the set-up process:
	// warm-up for fio workloads, open+load+warm round for the apps.
	prepare func(p *sim.Proc, r *rig, under span)
	phases  []phase
	// anchor scores the prefix rounds against the paper (see
	// paper_match_pct) and names the modelled results it was scored on.
	anchor func(prefix [][]phaseRec) (errPct float64, layer map[string]float64)
}

// phase is one closed-loop load pattern; run blocks until it has drained.
type phase struct {
	name string
	run  func(p *sim.Proc, r *rig, round int) phaseOut
}

// phaseOut is what the load generator itself measured, all in sim time.
type phaseOut struct {
	lat       stats.Hist // completion latencies
	vals      []float64  // headline results, in the phase's own order
	ops       uint64     // application operations (0 for fio)
	failedOps uint64
}

// sliceSum accumulates host time and completions over slices.
type sliceSum struct {
	us  float64
	ios uint64
}

// phaseRec adds what the rig saw across the phase.
type phaseRec struct {
	phaseOut
	name             string
	ios, events      uint64
	simStart, simEnd sim.Time
}

type rig struct {
	o       runOpts
	sp      *spans
	tb      *bmstore.Testbed
	drivers []*host.Driver
	devs    []host.BlockDevice // jobs devices per driver, driver-major
	apps    *appState
	// err is the first panic recovered inside one of the benchmark's own
	// simulation processes.
	err error
}

func (r *rig) counters() (c host.IOCounters) {
	for _, d := range r.drivers {
		dc := d.Counters()
		c.Submitted += dc.Submitted
		c.Completed += dc.Completed
		c.Timeouts += dc.Timeouts
		c.Stragglers += dc.Stragglers
		c.Spurious += dc.Spurious
		c.Reclaimed += dc.Reclaimed
		c.ZombiesLeft += dc.ZombiesLeft
	}
	return c
}

// inFlight is the number of commands rung in and neither completed nor
// given up on.
func (r *rig) inFlight() uint64 {
	c := r.counters()
	return c.Submitted - c.Completed - c.Timeouts
}

// guard runs fn as a simulation process body and turns a panic in it into
// a failed run. (A panic on a goroutine the load generators spawn cannot
// be caught here; it kills the child process, which the parent records.)
func (r *rig) guard(fn func(p *sim.Proc)) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		defer func() {
			if e := recover(); e != nil && r.err == nil {
				r.err = fmt.Errorf("panic in %s: %v", p.Name(), e)
			}
		}()
		fn(p)
	}
}

func (w *rigWorkload) scale(o runOpts, t sim.Time) sim.Time {
	if o.quick {
		return t / 20
	}
	return t
}

// setup builds one rig ready for its first measured I/O.
func (w *rigWorkload) setup(o runOpts, sp *spans, under span) (*rig, error) {
	cfg := bmstore.DefaultConfig()
	cfg.Seed = o.seed
	cfg.NumSSDs = w.ssds
	cfg.CaptureData = w.capture
	var opts []bmstore.Option
	if w.telemetry || o.trace {
		opts = append(opts, bmstore.WithTimeline(telemetry))
	}
	b := sp.begin(under, laneMain, "bmstore.build")
	tb, err := bmstore.NewBMStoreTestbed(cfg, opts...)
	b.end()
	if err != nil {
		return nil, err
	}
	r := &rig{o: o, sp: sp, tb: tb}
	prep := tb.Env.Go("bench/setup", r.guard(func(p *sim.Proc) {
		for i := 0; i < w.ssds; i++ {
			s := sp.begin(under, laneMain, "controller.provision")
			vol := fmt.Sprintf("vol%d", i)
			if err := tb.Console.CreateNamespace(p, vol, w.nsBytes, []int{i}); err != nil {
				panic(err)
			}
			if err := tb.Console.Bind(p, vol, uint8(i)); err != nil {
				panic(err)
			}
			s.end()
			s = sp.begin(under, laneMain, "host.attach")
			dcfg := host.DefaultDriverConfig()
			if w.guest {
				vm := host.KVMGuest()
				dcfg.VM = &vm
			}
			drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
			if err != nil {
				panic(err)
			}
			s.end()
			r.drivers = append(r.drivers, drv)
			for j := 0; j < w.jobs; j++ {
				r.devs = append(r.devs, drv.BlockDev(j))
			}
		}
		w.prepare(p, r, under)
	}))
	tb.Env.RunUntilEvent(prep.Done())
	if r.err != nil {
		tb.Env.Shutdown()
	}
	return r, r.err
}

func (w *rigWorkload) run(o runOpts, sp *spans) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	root := sp.begin(span{}, laneMain, "workload")
	defer root.end()

	ref := newRefKernel()
	var r *rig
	for i := 0; i < o.setups; i++ {
		if r != nil {
			// Unwind the discarded rig's processes and drop its memory, so
			// each set-up starts from the same heap and peak RSS is one
			// rig's, not the sum.
			r.tb.Env.Shutdown()
			r = nil
			runtime.GC()
		}
		before := ref.run()
		t0 := time.Now()
		s := sp.begin(root, laneMain, "setup")
		var err error
		r, err = w.setup(o, sp, s)
		s.end()
		if err != nil {
			return nil, err
		}
		m.addSetup(time.Since(t0).Seconds(), refScale(before, ref.run()))
	}
	defer r.tb.Env.Shutdown()
	env := r.tb.Env
	reg := r.tb.Metrics()

	// State shared with the measuring process below. Exactly one of the
	// scheduler (this goroutine) and a simulation process runs at a time,
	// handing off through channels, so plain variables are safe.
	var (
		rounds     [][]phaseRec
		late       bool // the run has used its time twice over
		cur        = -1 // index of the phase in flight
		changes    int  // phase boundaries crossed so far
		curSpan    span
		inPhase    sliceSum // slices since the phase in flight began
		regAtStart regSnap
		regAtEnd   regSnap // at the end of the prefix rounds
		pages      int
	)
	if o.trace {
		regAtStart = snapRegistry(reg)
	}
	m.phaseUS = make([][]float64, len(w.phases))
	main := env.Go("bench/main", r.guard(func(p *sim.Proc) {
		before := ref.run()
		for round := 0; round < prefixRounds || round < o.rounds && !late; round++ {
			roundStart := time.Now()
			recs := make([]phaseRec, len(w.phases))
			var phaseUS []float64 // this round's samples, one per phase
			for i, ph := range w.phases {
				rec := &recs[i]
				rec.name, rec.simStart = ph.name, p.Now()
				c0, e0 := r.counters().Completed, env.Events()
				curSpan = sp.begin(root, laneMain, "phase:"+ph.name)
				cur, changes = i, changes+1
				rec.phaseOut = ph.run(p, r, round)
				cur, changes = -1, changes+1
				curSpan.end()
				// One sample per phase and round: the host time of the
				// slices that lay wholly inside it over their I/Os. The
				// slices of one phase differ a lot — the ramp completes
				// little — so their ratios are not averaged.
				phaseUS = append(phaseUS, ratio(inPhase.us, float64(inPhase.ios)))
				inPhase = sliceSum{}
				rec.ios, rec.events = r.counters().Completed-c0, env.Events()-e0
				rec.simEnd = p.Now()
			}
			rounds = append(rounds, recs)
			dt, after := time.Since(roundStart).Seconds(), ref.run()
			m.addRound(dt, phaseUS, refScale(before, after))
			before = after
			if round == prefixRounds-1 {
				if o.trace {
					regAtEnd = snapRegistry(reg)
				}
				pages = r.tb.Host.Mem.TouchedPages()
				m.liveHeap = liveHeapBytes() - ref.bytes()
				if o.plantFail {
					m.attempted++
					if err := r.devs[0].ReadAt(p, r.devs[0].CapacityBlocks(), 1, nil); err != nil {
						m.failed++
					}
				}
			}
		}
	}))

	slice := w.scale(o, w.slice)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, e0 := r.counters(), env.Events()
	t0 := time.Now()
	if o.noSlice {
		env.RunUntilEvent(main.Done())
	}
	for !main.Done().Processed() {
		ph, ch, done := cur, changes, r.counters().Completed
		sl := sp.begin(curSpan, laneSlice, "slice")
		ts := time.Now()
		env.RunUntil(env.Now() + slice)
		dt := time.Since(ts)
		sl.end()
		// A slice counts only if it lay inside one phase from end to end.
		if n := r.counters().Completed - done; ph >= 0 && changes == ch && n > 0 {
			us := float64(dt.Nanoseconds()) / 1e3
			inPhase.us += us
			inPhase.ios += n
			m.sliceUS = append(m.sliceUS, us/float64(n))
		}
		late = time.Since(t0).Seconds() > lateFactor*o.seconds
	}
	runtime.ReadMemStats(&ms1)
	if r.err != nil {
		return nil, r.err
	}
	m.ios = r.counters().Completed - c0.Completed
	m.events = env.Events() - e0
	// The applications' background writers (flush, compaction, redo,
	// checkpoint) may have a command in flight when the last round ends:
	// step the clock until it has landed, so the books can be checked.
	for i := 0; i < 500 && r.inFlight() != 0; i++ {
		env.RunUntil(env.Now() + 100*sim.Microsecond)
	}
	c1 := r.counters()
	m.mallocs = ms1.Mallocs - ms0.Mallocs

	// Operations attempted and failed. The load generators panic on an I/O
	// error, so what can fail quietly is a command that timed out for good
	// and an application operation that returned an error.
	m.attempted += c1.Submitted - c0.Submitted
	m.failed += c1.Timeouts - c1.Stragglers - c1.Reclaimed
	var ops uint64
	for _, recs := range rounds {
		for _, rec := range recs {
			ops += rec.ops
			m.attempted += rec.ops
			m.failed += rec.failedOps
		}
	}

	// Output checks: the CID books balance once the load has drained.
	m.checkf(c1.Submitted == c1.Completed+c1.Timeouts, "doorbells %d != CQEs %d + timeouts %d", c1.Submitted, c1.Completed, c1.Timeouts)
	m.checkf(c1.ZombiesLeft == 0 && c1.Spurious == 0, "%d zombie CIDs, %d spurious CQEs left", c1.ZombiesLeft, c1.Spurious)

	// Prefix rounds: the exact, sim-domain part.
	prefix := rounds[:prefixRounds]
	var lat stats.Hist
	for ri, recs := range prefix {
		for _, rec := range recs {
			m.prefixIOs += rec.ios
			m.prefixEvents += rec.events
			lat.Merge(&rec.lat)
			m.fp = append(m.fp, fmt.Sprintf("round %d %s ios=%d events=%d sim=[%d,%d] ops=%d lat=%s vals=%v",
				ri, rec.name, rec.ios, rec.events, rec.simStart, rec.simEnd, rec.ops, histLine(&rec.lat), rec.vals))
		}
	}
	var layer map[string]float64
	m.paperErrPct, layer = w.anchor(prefix)

	if o.trace {
		for k, v := range layer {
			m.layer[k] = v
		}
		m.layer["fio.lat_p50_us"] = float64(lat.Percentile(0.50)) / 1e3
		m.layer["fio.lat_p99_us"] = float64(lat.Percentile(0.99)) / 1e3
		m.layer["hostmem.touched_pages"] = float64(pages)
		m.layer["apps.host_us_per_txn"] = ratio(m.wallS*1e6, float64(ops))
		modelledCounters(m, regAtStart, regAtEnd, m.prefixIOs)

		ex := sp.begin(root, laneMain, "export")
		if err := exportRegistry(reg); err != nil {
			return nil, err
		}
		m.layer["obs.export_ms"] = float64(ex.end().Nanoseconds()) / 1e6
	}
	return m, nil
}

// histLine is a histogram's contribution to the fingerprint: count, range,
// sum (through the mean) and a grid of quantiles, each of which is a bucket
// boundary.
func histLine(h *stats.Hist) string {
	s := fmt.Sprintf("n=%d min=%d max=%d mean=%v", h.N(), h.Min(), h.Max(), h.Mean())
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		s += fmt.Sprintf(" %d", h.Percentile(q))
	}
	return s
}

// --- the registry, read from outside ---

// regSnap is the part of an obs registry the benchmark reads: counters and
// gauge peaks by component, span stage sums, and the sampled die waits.
type regSnap struct {
	counters map[string]uint64 // "component\x00counter"
	peaks    map[string]int64
	stageN   [obs.NumStages]uint64
	stageSum [obs.NumStages]float64 // ns
	mediaN   uint64
	mediaSum float64
	dieN     uint64  // sampled timelines
	dieSum   float64 // their die waits, ns
}

// snapRegistry reads one rig's registry; nil gives an empty snapshot.
func snapRegistry(reg *obs.Registry) regSnap {
	if reg == nil {
		return newRegSnap(nil, &obs.SpanAgg{}, nil)
	}
	return newRegSnap(reg.Snapshot().Components, reg.SpanAggregate(), []timeline.RigDump{reg.Timeline().Dump("")})
}

// snapSet reads a family of registries as one: counters of the same name
// add up, gauge peaks take the highest.
func snapSet(set *obs.Set) regSnap {
	var comps []obs.ComponentSnap
	for _, rig := range set.Snapshot().Rigs {
		comps = append(comps, rig.Components...)
	}
	return newRegSnap(comps, set.Aggregate(), set.TimelineDumps())
}

func newRegSnap(comps []obs.ComponentSnap, agg *obs.SpanAgg, dumps []timeline.RigDump) regSnap {
	s := regSnap{counters: map[string]uint64{}, peaks: map[string]int64{}}
	for _, c := range comps {
		for _, ctr := range c.Counters {
			s.counters[c.Name+"\x00"+ctr.Name] += ctr.Value
		}
		for _, g := range c.Gauges {
			if k := c.Name + "\x00" + g.Name; g.Peak > s.peaks[k] {
				s.peaks[k] = g.Peak
			}
		}
	}
	for op := range agg.Stage {
		for st := range agg.Stage[op] {
			h := &agg.Stage[op][st]
			s.stageN[st] += h.N()
			s.stageSum[st] += h.Mean() * float64(h.N())
		}
		s.mediaN += agg.Media[op].N()
		s.mediaSum += agg.Media[op].Mean() * float64(agg.Media[op].N())
	}
	for _, d := range dumps {
		for _, rec := range d.Samples {
			s.dieN++
			s.dieSum += float64(rec.Waits[timeline.WaitDie])
		}
	}
	return s
}

// sum adds counter name over every component whose name starts with prefix.
func (s regSnap) sum(prefix, name string) (n uint64) {
	for k, v := range s.counters {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "\x00"+name) {
			n += v
		}
	}
	return n
}

// peak is the highest peak of gauge name over the same components.
func (s regSnap) peak(prefix, name string) (p int64) {
	for k, v := range s.peaks {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "\x00"+name) && v > p {
			p = v
		}
	}
	return p
}

// exportRegistry does what a telemetry run does once the simulation is
// over: snapshot, JSON export and the Perfetto timeline, all discarded.
func exportRegistry(reg *obs.Registry) error {
	if err := reg.Snapshot().WriteJSON(io.Discard); err != nil {
		return err
	}
	return timeline.WriteTrace(io.Discard, []timeline.RigDump{reg.Timeline().Dump("bench")})
}

// modelledCounters fills the sim-domain per-layer metrics from two
// registry snapshots taken ios I/Os apart.
func modelledCounters(m *measurement, a, b regSnap, ios uint64) {
	d := func(prefix, name string) float64 { return float64(b.sum(prefix, name) - a.sum(prefix, name)) }
	n := float64(ios)
	stageUS := func(st obs.Stage) float64 {
		return ratio(b.stageSum[st]-a.stageSum[st], float64(b.stageN[st]-a.stageN[st])) / 1e3
	}
	l := m.layer
	l["sim.proc_resumes_per_io"] = ratio(d("sim", "proc_resumes"), n)
	l["sim.procs_spawned"] = d("sim", "procs_spawned")
	l["host.doorbells_per_io"] = ratio(d("host/", "doorbells"), n)
	l["host.cqes_per_io"] = ratio(d("host/", "cqes"), n)
	l["host.block_splits_per_io"] = ratio(d("host/", "block_splits"), n)
	l["host.retries"] = d("host/", "retries")
	l["host.timeouts"] = d("host/", "timeouts")
	l["host.sim_submit_us"] = stageUS(obs.StageSubmit)
	l["host.sim_reap_us"] = stageUS(obs.StageReap)
	l["engine.sim_frontend_us"] = stageUS(obs.StageFrontend)
	l["engine.sim_map_qos_us"] = stageUS(obs.StageMap)
	l["engine.sim_complete_us"] = stageUS(obs.StageComplete)
	l["engine.qos_parked"] = d("engine/ns/", "qos_parked")
	l["engine.backend_inflight_peak"] = float64(b.peak("engine/backend", "inflight"))
	l["ssd.sim_nand_us"] = ratio(b.mediaSum-a.mediaSum, float64(b.mediaN-a.mediaN)) / 1e3
	l["ssd.sim_die_wait_us"] = ratio(b.dieSum, float64(b.dieN)) / 1e3
	l["ssd.media_ops"] = d("ssd/", "read_ops") + d("ssd/", "write_ops")
	l["pcie.link_bytes_per_io"] = ratio(d("pcie/", "up_bytes")+d("pcie/", "down_bytes"), n)
	l["controller.mi_cmds"] = float64(b.sum("bmsc", "mi_cmds"))
}
