// Package fio is a flexible-I/O-tester-shaped workload generator for the
// simulator: jobs × iodepth outstanding requests over any host.BlockDevice,
// with per-job CPU accounting and fio-style IOPS/bandwidth/latency
// aggregation. The presets mirror Table IV of the paper.
package fio

import (
	"fmt"
	"strconv"

	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
	"bmstore/internal/stats"
)

// Pattern is the access pattern of a job.
type Pattern int

const (
	RandRead Pattern = iota
	RandWrite
	SeqRead
	SeqWrite
	RandRW // mixed, RWMixRead percent reads
)

func (pt Pattern) String() string {
	switch pt {
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case SeqRead:
		return "read"
	case SeqWrite:
		return "write"
	case RandRW:
		return "randrw"
	}
	return "?"
}

// Spec describes one fio invocation.
type Spec struct {
	Name      string
	Pattern   Pattern
	BlockSize int // bytes per I/O
	IODepth   int
	NumJobs   int
	Runtime   sim.Time
	Ramp      sim.Time // excluded from measurement
	RWMixRead int      // percent reads for RandRW (default 50)
	Seed      string   // extra RNG stream salt
}

// Table IV test cases. Runtimes are chosen for simulation speed; the
// generator reaches steady state within a few milliseconds of virtual time.
func TableIVCases(runtime sim.Time) []Spec {
	return []Spec{
		{Name: "rand-r-1", Pattern: RandRead, BlockSize: 4 << 10, IODepth: 1, NumJobs: 4, Runtime: runtime},
		{Name: "rand-r-128", Pattern: RandRead, BlockSize: 4 << 10, IODepth: 128, NumJobs: 4, Runtime: runtime},
		{Name: "rand-w-1", Pattern: RandWrite, BlockSize: 4 << 10, IODepth: 1, NumJobs: 4, Runtime: runtime},
		{Name: "rand-w-16", Pattern: RandWrite, BlockSize: 4 << 10, IODepth: 16, NumJobs: 4, Runtime: runtime},
		{Name: "seq-r-256", Pattern: SeqRead, BlockSize: 128 << 10, IODepth: 256, NumJobs: 4, Runtime: runtime},
		{Name: "seq-w-256", Pattern: SeqWrite, BlockSize: 128 << 10, IODepth: 256, NumJobs: 4, Runtime: runtime},
	}
}

// JobResult is one job's measured aggregate.
type JobResult struct {
	Read  stats.IOStats
	Write stats.IOStats
}

// Result is an fio run's aggregate.
type Result struct {
	Spec     Spec
	Read     stats.IOStats
	Write    stats.IOStats
	Duration sim.Time // measured window
	Jobs     []JobResult
}

// IOPS returns total operations per second over the measured window.
func (r *Result) IOPS() float64 {
	return r.Read.IOPS(r.Duration) + r.Write.IOPS(r.Duration)
}

// BandwidthMBs returns total throughput in MB/s.
func (r *Result) BandwidthMBs() float64 {
	return r.Read.BandwidthMBs(r.Duration) + r.Write.BandwidthMBs(r.Duration)
}

// AvgLatencyUS returns the mean completion latency in microseconds across
// both directions.
func (r *Result) AvgLatencyUS() float64 {
	n := r.Read.Lat.N() + r.Write.Lat.N()
	if n == 0 {
		return 0
	}
	sum := r.Read.Lat.Mean()*float64(r.Read.Lat.N()) + r.Write.Lat.Mean()*float64(r.Write.Lat.N())
	return sum / float64(n) / 1e3
}

// streamName appends the name of worker w of job j's random stream,
// "fio/<seed>/<name>/j<J>/w<W>", to b. Env.Rand hashes the name, so every
// byte of it is part of every fio result.
func (spec *Spec) streamName(b []byte, j, w int) []byte {
	b = append(b, "fio/"...)
	b = append(b, spec.Seed...)
	b = append(b, '/')
	b = append(b, spec.Name...)
	b = append(b, "/j"...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, "/w"...)
	return strconv.AppendInt(b, int64(w), 10)
}

// jobName appends job j's process name, "fio/<name>/j<J>" (trace digests
// fold spawn names, and a wedged run's diagnosis lists it), to b.
func (spec *Spec) jobName(b []byte, j int) []byte {
	b = append(b, "fio/"...)
	b = append(b, spec.Name...)
	b = append(b, "/j"...)
	return strconv.AppendInt(b, int64(j), 10)
}

// Run executes the spec against the devices and blocks until the runtime
// elapses and outstanding I/O drains. devs supplies the per-job device;
// job i uses devs[i%len(devs)] (pass one device to share it, or one per
// job/VM to spread).
//
// Each job is a process, "fio/<name>/j<J>", started in place: it starts the
// job's IODepth workers and parks until they have all ended, and it is where
// a worker's I/O error surfaces, as a panic naming the job. A worker is not a
// process but a closed loop of callbacks over host.BlockDevice.Submit: its
// I/O's completion books the job's CPU, records the latency and submits the
// next I/O, each step at the instant a process looping over ReadAt would
// take it. The caller parks once, until the last worker ends.
func Run(p *sim.Proc, devs []host.BlockDevice, spec Spec) *Result {
	if len(devs) == 0 {
		panic("fio: no devices")
	}
	if spec.IODepth <= 0 || spec.NumJobs <= 0 || spec.BlockSize <= 0 || spec.BlockSize%devs[0].BlockSize() != 0 ||
		spec.Runtime <= 0 || spec.Ramp < 0 || spec.Pattern == RandRW && (spec.RWMixRead < 0 || spec.RWMixRead > 100) {
		panic(fmt.Sprintf("fio: bad spec %+v", spec))
	}
	env := p.Env()
	res := &Result{Spec: spec, Jobs: make([]JobResult, spec.NumJobs)}
	r := &run{
		spec:         &spec,
		env:          env,
		measureStart: p.Now() + spec.Ramp,
		left:         spec.NumJobs * spec.IODepth,
		wake:         env.PooledEvent(),
	}
	r.end = r.measureStart + spec.Runtime
	res.Duration = spec.Runtime
	// Names are built in one buffer, without fmt: a phase starts NumJobs ×
	// IODepth workers, and a deep sequential phase's workers complete a few
	// I/Os each, so what a worker costs to start shows.
	var name []byte
	for j := 0; j < spec.NumJobs; j++ {
		dev := devs[j%len(devs)]
		// Per-job sequential cursor and region.
		blocks := uint64(spec.BlockSize / dev.BlockSize())
		region := dev.CapacityBlocks() / uint64(spec.NumJobs)
		region -= region % blocks
		if region < blocks {
			panic("fio: device too small for job count")
		}
		jb := &job{
			run: r, id: j, dev: dev, jr: &res.Jobs[j],
			// One CPU core per job: per-I/O kernel+VM CPU time is booked
			// here, capping the job's throughput without entering I/O
			// latency.
			cpu:     sim.NewPacer(env, 1e9),
			blocks:  blocks,
			region:  region,
			base:    uint64(j) * region,
			left:    spec.IODepth,
			wake:    env.PooledEvent(),
			workers: make([]worker, spec.IODepth),
		}
		name = spec.jobName(name[:0], j)
		env.Start(string(name), jb.main)
	}
	p.Wait(r.wake)
	for i := range res.Jobs {
		res.Read.Merge(&res.Jobs[i].Read)
		res.Write.Merge(&res.Jobs[i].Write)
	}
	return res
}

// run is one Run's shared state.
type run struct {
	spec              *Spec
	env               *sim.Env
	measureStart, end sim.Time
	left              int        // workers still running
	wake              *sim.Event // the caller's wait for the last of them
}

// job is one fio job: its device, CPU, region and workers.
type job struct {
	run     *run
	id      int
	dev     host.BlockDevice
	jr      *JobResult
	cpu     *sim.Pacer
	blocks  uint64
	region  uint64
	base    uint64
	seqOff  uint64
	left    int        // workers still running
	wake    *sim.Event // the job process's wait for them
	ended   func()     // workerEnded, bound once
	err     error      // the first I/O error
	workers []worker
}

// main is the job process: it starts the workers, each at its own zero-delay
// queue entry, and parks until they end or one fails.
func (jb *job) main(jp *sim.Proc) {
	spec, env := jb.run.spec, jb.run.env
	jb.ended = jb.workerEnded
	var name []byte
	for w := range jb.workers {
		wk := &jb.workers[w]
		name = spec.streamName(name[:0], jb.id, w)
		wk.job = jb
		env.InitRand(&wk.rng, string(name))
		wk.step, wk.done = wk.onStep, wk.onDone
		env.Schedule(0, wk.step)
	}
	jp.Wait(jb.wake)
	if jb.err != nil {
		panic(fmt.Sprintf("fio: I/O error: %v", jb.err))
	}
}

// fail stops the job at its first I/O error: the job process wakes and
// panics with it.
func (jb *job) fail(err error) {
	if jb.err == nil {
		jb.err = err
		jb.wake.Trigger(nil)
	}
}

// workerEnded counts a worker out, in its own zero-delay queue entry, where
// a worker process's Done event would fire: the last of the job's wakes the
// job process, the last of the run's the caller.
func (jb *job) workerEnded() {
	if jb.left--; jb.left == 0 {
		jb.wake.Fire(nil)
	}
	r := jb.run
	if r.left--; r.left == 0 {
		r.wake.Fire(nil)
	}
}

// worker is one of a job's IODepth outstanding I/Os, a closed loop: draw,
// submit, and on completion book the CPU, record, and go again. It holds its
// random stream in place (job.workers never moves after make), so a start
// allocates only its two bound callbacks, and a worker that draws past the
// stream's lazy draws its register.
type worker struct {
	job     *job
	rng     sim.Rand
	read    bool
	start   sim.Time
	ownDone sim.Time
	reaped  bool // the next step records the I/O just completed
	step    func()
	done    func(host.IOOutcome)
}

func (w *worker) onStep() {
	if w.reaped {
		w.record()
	} else {
		w.next()
	}
}

// next submits the worker's next I/O, or ends the worker once the run's
// window is over.
func (w *worker) next() {
	jb := w.job
	r, spec := jb.run, jb.run.spec
	if r.env.Now() >= r.end {
		r.env.Schedule(0, jb.ended)
		return
	}
	var lba uint64
	read := false
	switch spec.Pattern {
	case RandRead, RandWrite, RandRW:
		lba = jb.base + uint64(w.rng.Int63n(int64(jb.region/jb.blocks)))*jb.blocks
		switch spec.Pattern {
		case RandRead:
			read = true
		case RandRW:
			mix := spec.RWMixRead
			if mix == 0 {
				mix = 50
			}
			read = w.rng.Intn(100) < mix
		}
	case SeqRead, SeqWrite:
		lba = jb.base + jb.seqOff
		jb.seqOff += jb.blocks
		if jb.seqOff+jb.blocks > jb.region {
			jb.seqOff = 0
		}
		read = spec.Pattern == SeqRead
	}
	w.read, w.start = read, r.env.Now()
	op := uint8(nvme.IOWrite)
	if read {
		op = nvme.IORead
	}
	jb.dev.Submit(op, lba, uint32(jb.blocks), nil, w.done)
}

// onDone is the I/O's completion. Completion-side CPU accounting: the job's
// core reaps completions one at a time, so an I/O first waits for the CPU
// work queued ahead of it (that wait is part of its fio-visible latency),
// then pays its own processing before the worker can submit again (that
// part is not).
func (w *worker) onDone(oc host.IOOutcome) {
	jb := w.job
	if err := oc.Err(); err != nil {
		jb.fail(err)
		return
	}
	w.ownDone = 0
	if c := jb.dev.PerIOCPU(); c > 0 {
		env := jb.run.env
		// Interrupt handling and reaping are not metronomic: +/-15% keeps
		// the latency distribution's tails realistic when the CPU stage is
		// the bottleneck (Fig. 12).
		c = sim.Time(float64(c) * (0.85 + 0.3*w.rng.Float64()))
		finish := jb.cpu.Reserve(c)
		w.ownDone = finish
		if queued := finish - c - env.Now(); queued > 0 {
			w.reaped = true
			env.Schedule(queued, w.step)
			return
		}
	}
	w.record()
}

// record books the completed I/O and waits out the rest of its CPU work
// before the next one.
func (w *worker) record() {
	w.reaped = false
	jb := w.job
	r := jb.run
	now := r.env.Now()
	// Steady-state accounting: count completions landing in the measurement
	// window (fio semantics) — filtering by submission time would censor one
	// latency's worth of throughput at each window edge.
	if now >= r.measureStart && now <= r.end {
		if w.read {
			jb.jr.Read.Record(r.spec.BlockSize, now-w.start)
		} else {
			jb.jr.Write.Record(r.spec.BlockSize, now-w.start)
		}
	}
	if rest := w.ownDone - now; rest > 0 {
		r.env.Schedule(rest, w.step)
		return
	}
	w.next()
}
