// Package fio is a flexible-I/O-tester-shaped workload generator for the
// simulator: jobs × iodepth outstanding requests over any host.BlockDevice,
// with per-job CPU accounting and fio-style IOPS/bandwidth/latency
// aggregation. The presets mirror Table IV of the paper.
package fio

import (
	"fmt"
	"strconv"

	"bmstore/internal/host"
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

// procName appends the worker's process name, "fio/<name>/j<J>.<W>" (trace
// digests fold spawn names), to b.
func (spec *Spec) procName(b []byte, j, w int) []byte {
	b = append(b, "fio/"...)
	b = append(b, spec.Name...)
	b = append(b, "/j"...)
	b = strconv.AppendInt(b, int64(j), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(w), 10)
}

// Run executes the spec against the devices and blocks until the runtime
// elapses and outstanding I/O drains. devs supplies the per-job device;
// job i uses devs[i%len(devs)] (pass one device to share it, or one per
// job/VM to spread).
func Run(p *sim.Proc, devs []host.BlockDevice, spec Spec) *Result {
	if len(devs) == 0 {
		panic("fio: no devices")
	}
	if spec.IODepth <= 0 || spec.NumJobs <= 0 || spec.BlockSize <= 0 || spec.BlockSize%devs[0].BlockSize() != 0 {
		panic(fmt.Sprintf("fio: bad spec %+v", spec))
	}
	env := p.Env()
	res := &Result{Spec: spec, Jobs: make([]JobResult, spec.NumJobs)}
	measureStart := p.Now() + spec.Ramp
	end := measureStart + spec.Runtime
	res.Duration = spec.Runtime

	done := make([]*sim.Event, 0, spec.NumJobs*spec.IODepth)
	// Worker names are built in one buffer, without fmt: a phase starts
	// NumJobs × IODepth workers, and a deep sequential phase's workers
	// complete a few I/Os each, so what a worker costs to start shows.
	var name []byte
	for j := 0; j < spec.NumJobs; j++ {
		dev := devs[j%len(devs)]
		jr := &res.Jobs[j]
		jobID := j
		// One CPU core per job: per-I/O kernel+VM CPU time is booked here,
		// capping the job's throughput without entering I/O latency.
		cpu := sim.NewPacer(env, 1e9)
		// Per-job sequential cursor and region.
		blocks := uint64(spec.BlockSize / dev.BlockSize())
		region := dev.CapacityBlocks() / uint64(spec.NumJobs)
		region -= region % blocks
		if region < blocks {
			panic("fio: device too small for job count")
		}
		base := uint64(jobID) * region
		var seqOff uint64
		for w := 0; w < spec.IODepth; w++ {
			name = spec.streamName(name[:0], jobID, w)
			rng := env.Rand(string(name))
			name = spec.procName(name[:0], jobID, w)
			proc := env.Go(string(name), func(wp *sim.Proc) {
				for wp.Now() < end {
					var lba uint64
					read := false
					switch spec.Pattern {
					case RandRead, RandWrite, RandRW:
						lba = base + uint64(rng.Int63n(int64(region/blocks)))*blocks
						switch spec.Pattern {
						case RandRead:
							read = true
						case RandRW:
							mix := spec.RWMixRead
							if mix == 0 {
								mix = 50
							}
							read = rng.Intn(100) < mix
						}
					case SeqRead, SeqWrite:
						lba = base + seqOff
						seqOff += blocks
						if seqOff+blocks > region {
							seqOff = 0
						}
						read = spec.Pattern == SeqRead
					}
					start := wp.Now()
					var err error
					if read {
						err = dev.ReadAt(wp, lba, uint32(blocks), nil)
					} else {
						err = dev.WriteAt(wp, lba, uint32(blocks), nil)
					}
					if err != nil {
						panic(fmt.Sprintf("fio: I/O error: %v", err))
					}
					// Completion-side CPU accounting: the job's core reaps
					// completions one at a time, so an I/O first waits for
					// the CPU work queued ahead of it (that wait is part of
					// its fio-visible latency), then pays its own
					// processing before the worker can submit again (that
					// part is not).
					var ownDone sim.Time
					if c := dev.PerIOCPU(); c > 0 {
						// Interrupt handling and reaping are not
						// metronomic: +/-15% keeps the latency
						// distribution's tails realistic when the CPU
						// stage is the bottleneck (Fig. 12).
						c = sim.Time(float64(c) * (0.85 + 0.3*rng.Float64()))
						finish := cpu.Reserve(c)
						if queued := finish - c - wp.Now(); queued > 0 {
							wp.Sleep(queued)
						}
						ownDone = finish
					}
					// Steady-state accounting: count completions landing in
					// the measurement window (fio semantics) — filtering by
					// submission time would censor one latency's worth of
					// throughput at each window edge.
					if wp.Now() >= measureStart && wp.Now() <= end {
						if read {
							jr.Read.Record(spec.BlockSize, wp.Now()-start)
						} else {
							jr.Write.Record(spec.BlockSize, wp.Now()-start)
						}
					}
					if rest := ownDone - wp.Now(); rest > 0 {
						wp.Sleep(rest)
					}
				}
			})
			done = append(done, proc.Done())
		}
	}
	for _, ev := range done {
		p.Wait(ev)
	}
	for i := range res.Jobs {
		res.Read.Merge(&res.Jobs[i].Read)
		res.Write.Merge(&res.Jobs[i].Write)
	}
	return res
}
