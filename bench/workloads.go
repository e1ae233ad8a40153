package main

import (
	"fmt"
	"math"

	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/fio"
	"bmstore/internal/sim"
)

// workload is one entry of the benchmark: it sets up, measures for about
// o.seconds of host time and hands back raw samples.
type workload interface {
	run(o runOpts, sp *spans) (*measurement, error)
}

func lookupWorkload(name string) workload {
	switch name {
	case "rand4k":
		return rand4k(false)
	case "rand4k-telemetry":
		return rand4k(true)
	case "seq128k":
		return seq128k()
	case "apps-mixed":
		return appsMixed()
	case "fleet-rollout":
		return fleetRollout{}
	}
	return nil
}

// Paper anchors (Table V and Fig. 10, BM-Store rows).
const (
	paperRandR128KIOPS = 651.0
	paperRandW16LatUS  = 179.9
	paperSeqR256GBps   = 12.6
)

// fioPhase runs one Table IV case for runtime of sim time per round. Each
// round salts the generator's RNG streams, so rounds do not replay one
// another's addresses.
func (w *rigWorkload) fioPhase(spec fio.Spec, headline func(*fio.Result) float64) phase {
	return phase{name: spec.Name, run: func(p *sim.Proc, r *rig, round int) phaseOut {
		s := quickSpec(r.o, spec)
		if round < 0 {
			s.Runtime /= 4 // warm-up
		}
		s.Seed = fmt.Sprintf("round%d", round)
		res := fio.Run(p, r.devs, s)
		out := phaseOut{vals: []float64{headline(res)}}
		out.lat.Merge(&res.Read.Lat)
		out.lat.Merge(&res.Write.Lat)
		return out
	}}
}

// quickSpec shrinks a fio case for the -quick smoke pass: a twentieth of
// the sim time at an eighth of the queue depth.
func quickSpec(o runOpts, s fio.Spec) fio.Spec {
	if o.quick {
		s.Runtime, s.Ramp, s.IODepth = s.Runtime/20, s.Ramp/20, s.IODepth/8
	}
	return s
}

// warmUp runs every phase once as round -1, which the phases cut short,
// before the first measured I/O: pools fill, ring pages are touched, queues
// wrap, caches warm.
func (w *rigWorkload) warmUp(p *sim.Proc, r *rig, under span) {
	s := r.sp.begin(under, laneMain, "warmup")
	defer s.end()
	for _, ph := range w.phases {
		ph.run(p, r, -1)
	}
}

func kiops(res *fio.Result) float64 { return res.IOPS() / 1e3 }
func latUS(res *fio.Result) float64 { return res.AvgLatencyUS() }
func gbps(res *fio.Result) float64  { return res.BandwidthMBs() / 1e3 }

// meanVal averages one headline result of one phase over the prefix rounds.
func meanVal(prefix [][]phaseRec, phase, idx int) float64 {
	var v []float64
	for _, recs := range prefix {
		v = append(v, recs[phase].vals[idx])
	}
	return mean(v)
}

// rand4k is the Table V rig: one P4510, one tenant function, 4 jobs. A
// round is rand-r-128 (512 in flight) then rand-w-16, 60 ms of sim time
// each — about 60 k I/Os and 0.6 s of host time.
func rand4k(telemetry bool) *rigWorkload {
	w := &rigWorkload{ssds: 1, jobs: 4, nsBytes: 1536 << 30, telemetry: telemetry, slice: 2 * sim.Millisecond}
	w.phases = []phase{
		w.fioPhase(fio.Spec{Name: "randr128", Pattern: fio.RandRead, BlockSize: 4 << 10, IODepth: 128, NumJobs: 4,
			Runtime: 60 * sim.Millisecond, Ramp: 2 * sim.Millisecond}, kiops),
		w.fioPhase(fio.Spec{Name: "randw16", Pattern: fio.RandWrite, BlockSize: 4 << 10, IODepth: 16, NumJobs: 4,
			Runtime: 60 * sim.Millisecond, Ramp: 2 * sim.Millisecond}, latUS),
	}
	w.prepare = w.warmUp
	w.anchor = func(prefix [][]phaseRec) (float64, map[string]float64) {
		k, l := meanVal(prefix, 0, 0), meanVal(prefix, 1, 0)
		return (errPct(k, paperRandR128KIOPS) + errPct(l, paperRandW16LatUS)) / 2,
			map[string]float64{"fio.randr128_kiops": k, "fio.randw16_lat_us": l}
	}
	return w
}

// seq128k is the Fig. 10 4-SSD point: 4 SSDs, 4 namespaces, 4 tenant
// functions, 16 jobs x QD256 of 128 KiB. A round is seq-r-256 then
// seq-w-256, 100 ms of sim time each after a 50 ms ramp that fills the
// 4096-deep pipeline — about 30 k I/Os and 0.9 s of host time.
func seq128k() *rigWorkload {
	w := &rigWorkload{ssds: 4, jobs: 4, nsBytes: 1536 << 30, slice: 5 * sim.Millisecond}
	w.phases = []phase{
		w.fioPhase(fio.Spec{Name: "seqr256", Pattern: fio.SeqRead, BlockSize: 128 << 10, IODepth: 256, NumJobs: 16,
			Runtime: 100 * sim.Millisecond, Ramp: 50 * sim.Millisecond}, gbps),
		w.fioPhase(fio.Spec{Name: "seqw256", Pattern: fio.SeqWrite, BlockSize: 128 << 10, IODepth: 256, NumJobs: 16,
			Runtime: 100 * sim.Millisecond, Ramp: 50 * sim.Millisecond}, gbps),
	}
	w.prepare = w.warmUp
	w.anchor = func(prefix [][]phaseRec) (float64, map[string]float64) {
		rd, wr := meanVal(prefix, 0, 0), meanVal(prefix, 1, 0)
		return errPct(rd, paperSeqR256GBps), map[string]float64{"fio.seqr256_gbps": rd, "fio.seqw256_gbps": wr}
	}
	return w
}

// appState is the four open databases of apps-mixed.
type appState struct {
	ycfg   ycsb.Config
	scfg   sysbench.Config
	stores [2]*kvstore.Store
	dbs    [2]*minidb.DB
}

// appLoadCut is experiments.Fast()'s dataset cut.
const appLoadCut = 4

// appsMixed is the Fig. 14 BM-Store row: 4 SSDs, payload capture on, 4 KVM
// guests; two run kvstore+YCSB-A on 4 threads, two run minidb+sysbench on
// 8. Set-up opens and loads all four databases and runs one warm round; a
// measured round runs all four for 100 ms of sim time — about 15 k block
// I/Os and 0.9 s of host time.
func appsMixed() *rigWorkload {
	w := &rigWorkload{ssds: 4, jobs: 1, nsBytes: 256 << 30, capture: true, guest: true, slice: 5 * sim.Millisecond}
	w.phases = []phase{{name: "mixed", run: w.mixedRound}}
	w.prepare = func(p *sim.Proc, r *rig, under span) {
		cut := appLoadCut
		if r.o.quick {
			cut *= 8
		}
		a := &appState{ycfg: ycsb.DefaultYCSB(), scfg: sysbench.DefaultConfig()}
		a.ycfg.Records /= cut
		a.ycfg.Threads = 4
		a.scfg.TableSize /= cut
		a.scfg.Threads = 8
		r.apps = a

		s := r.sp.begin(under, laneMain, "apps.load")
		env := p.Env()
		var done []*sim.Event
		for i := 0; i < 2; i++ {
			i := i
			done = append(done, env.Go(fmt.Sprintf("bench/load-ycsb%d", i), r.guard(func(vp *sim.Proc) {
				st, err := kvstore.Open(vp, env, r.devs[i], kvstore.DefaultConfig())
				if err == nil {
					err = ycsb.Load(vp, st, a.ycfg)
				}
				if err != nil {
					panic(err)
				}
				a.stores[i] = st
			})).Done())
			done = append(done, env.Go(fmt.Sprintf("bench/load-mysql%d", i), r.guard(func(vp *sim.Proc) {
				dbc := minidb.DefaultConfig()
				dbc.PoolPages = 256
				db, err := minidb.Open(vp, env, r.devs[2+i], dbc)
				if err == nil {
					err = sysbench.Load(vp, db, a.scfg)
				}
				if err != nil {
					panic(err)
				}
				a.dbs[i] = db
			})).Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		s.end()
		if r.err == nil {
			w.warmUp(p, r, under)
		}
	}
	w.anchor = func(prefix [][]phaseRec) (float64, map[string]float64) {
		// Fig. 14's claim is consistent per-VM performance: the spread
		// between the two VMs of a kind, against a paper value of 0.
		spread := func(a, b float64) float64 { return math.Abs(a-b) / ((a + b) / 2) * 100 }
		var worst []float64
		for _, recs := range prefix {
			v := recs[0].vals
			worst = append(worst, math.Max(spread(v[0], v[1]), spread(v[2], v[3])))
		}
		return mean(worst), map[string]float64{
			"apps.ycsb_ops_per_s": (meanVal(prefix, 0, 0) + meanVal(prefix, 0, 1)) / 2,
			"apps.mysql_lat_ms":   (meanVal(prefix, 0, 2) + meanVal(prefix, 0, 3)) / 2,
		}
	}
	return w
}

// mixedRound runs the four applications side by side for one round.
func (w *rigWorkload) mixedRound(p *sim.Proc, r *rig, round int) phaseOut {
	a, env := r.apps, p.Env()
	dur := w.scale(r.o, 100*sim.Millisecond)
	if round < 0 {
		dur /= 2 // warm round
	}
	out := phaseOut{vals: make([]float64, 4)}
	var done []*sim.Event
	for i := 0; i < 2; i++ {
		i := i
		done = append(done, env.Go(fmt.Sprintf("bench/ycsb%d", i), r.guard(func(vp *sim.Proc) {
			c := a.ycfg
			c.Duration, c.Seed = dur, fmt.Sprintf("vm%d-round%d", i, round)
			res := ycsb.Run(vp, env, a.stores[i], ycsb.WorkloadA(), c)
			out.vals[i] = res.Throughput()
			out.ops += res.Ops
			out.failedOps += res.Failed
			out.lat.Merge(&res.Lat)
		})).Done())
		done = append(done, env.Go(fmt.Sprintf("bench/mysql%d", i), r.guard(func(vp *sim.Proc) {
			c := a.scfg
			c.Duration, c.Seed = dur, fmt.Sprintf("vm%d-round%d", 2+i, round)
			res := sysbench.Run(vp, env, a.dbs[i], c)
			out.vals[2+i] = res.AvgLatencyMS()
			out.ops += res.Transactions
			out.lat.Merge(&res.Lat)
		})).Done())
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	return out
}
