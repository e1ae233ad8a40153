package fio_test

import (
	"fmt"
	"strings"
	"testing"

	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/sim"
)

// fakeDev is a deterministic 50us device with request recording. fio drives
// devices through Submit only, so its process API is left unbound.
type fakeDev struct {
	host.Parking
	env      *sim.Env
	lat      sim.Time
	perIOCPU sim.Time
	reads    int
	writes   int
	lbas     []uint64
	sizes    []uint32
	free     []*fakeIO
}

// fakeIO is one I/O in flight on a fakeDev; spent ones are reused, so the
// device allocates nothing per I/O once warm.
type fakeIO struct {
	f    *fakeDev
	done func(host.IOOutcome)
	fire func()
}

func (f *fakeDev) BlockSize() int         { return 4096 }
func (f *fakeDev) CapacityBlocks() uint64 { return 1 << 20 }
func (f *fakeDev) PerIOCPU() sim.Time     { return f.perIOCPU }

func (f *fakeDev) Submit(op uint8, lba uint64, blocks uint32, _ []byte, done func(host.IOOutcome)) {
	switch op {
	case nvme.IORead:
		f.reads++
	case nvme.IOWrite:
		f.writes++
	}
	if op != nvme.IOFlush {
		f.lbas = append(f.lbas, lba)
		f.sizes = append(f.sizes, blocks)
	}
	var io *fakeIO
	if n := len(f.free); n > 0 {
		io, f.free = f.free[n-1], f.free[:n-1]
	} else {
		io = &fakeIO{f: f}
		io.fire = io.complete
	}
	io.done = done
	f.env.Schedule(f.lat, io.fire)
}

func (io *fakeIO) complete() {
	done := io.done
	io.done = nil
	io.f.free = append(io.f.free, io)
	done(host.IOOutcome{Attempts: 1})
}

func run(t *testing.T, dev host.BlockDevice, spec fio.Spec) *fio.Result {
	t.Helper()
	env := sim.NewEnv(7)
	if fd, ok := dev.(*fakeDev); ok {
		fd.env = env
	}
	var res *fio.Result
	main := env.Go("fio", func(p *sim.Proc) { res = fio.Run(p, []host.BlockDevice{dev}, spec) })
	env.RunUntilEvent(main.Done())
	env.Shutdown()
	return res
}

func TestQD1ThroughputMatchesLittleLaw(t *testing.T) {
	dev := &fakeDev{lat: 50 * sim.Microsecond}
	res := run(t, dev, fio.Spec{Name: "x", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 1, Runtime: 10 * sim.Millisecond})
	// 1 / 50us = 20K IOPS.
	if iops := res.IOPS(); iops < 19500 || iops > 20500 {
		t.Fatalf("IOPS %.0f, want ~20000", iops)
	}
	if lat := res.AvgLatencyUS(); lat < 49 || lat > 51 {
		t.Fatalf("latency %.1f, want 50", lat)
	}
}

func TestIODepthMultipliesThroughput(t *testing.T) {
	dev := &fakeDev{lat: 50 * sim.Microsecond}
	res := run(t, dev, fio.Spec{Name: "x", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 8, NumJobs: 1, Runtime: 10 * sim.Millisecond})
	// The fake device has no queueing: 8 workers x 20K.
	if iops := res.IOPS(); iops < 155000 || iops > 165000 {
		t.Fatalf("IOPS %.0f, want ~160000", iops)
	}
}

func TestSequentialPatternIsSequentialPerJob(t *testing.T) {
	dev := &fakeDev{lat: 10 * sim.Microsecond}
	run(t, dev, fio.Spec{Name: "x", Pattern: fio.SeqRead,
		BlockSize: 8192, IODepth: 1, NumJobs: 1, Runtime: sim.Millisecond})
	for i := 1; i < len(dev.lbas); i++ {
		if dev.lbas[i] != dev.lbas[i-1]+2 && dev.lbas[i] != 0 { // +2 blocks of 4K, or wrap
			t.Fatalf("non-sequential LBAs: %v", dev.lbas[:i+1])
		}
	}
	for _, s := range dev.sizes {
		if s != 2 {
			t.Fatalf("size %d blocks, want 2", s)
		}
	}
}

func TestRandRWMixFraction(t *testing.T) {
	dev := &fakeDev{lat: 5 * sim.Microsecond}
	res := run(t, dev, fio.Spec{Name: "x", Pattern: fio.RandRW, RWMixRead: 70,
		BlockSize: 4096, IODepth: 4, NumJobs: 2, Runtime: 20 * sim.Millisecond})
	total := dev.reads + dev.writes
	frac := float64(dev.reads) / float64(total)
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("read fraction %.2f, want ~0.70", frac)
	}
	if res.Read.Ops == 0 || res.Write.Ops == 0 {
		t.Fatal("result missing a direction")
	}
}

func TestPerIOCPUCapsThroughputWithoutLatency(t *testing.T) {
	// Device 10us, CPU 50us/IO: throughput capped at 20K/job, but
	// measured latency stays near the device's 10us at QD1 (the CPU work
	// overlaps between I/Os, exactly the VM-overhead behaviour).
	dev := &fakeDev{lat: 10 * sim.Microsecond, perIOCPU: 50 * sim.Microsecond}
	res := run(t, dev, fio.Spec{Name: "x", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 1, Runtime: 20 * sim.Millisecond})
	if iops := res.IOPS(); iops < 15000 || iops > 18500 {
		t.Fatalf("IOPS %.0f, want ~16-17K (1/(10+50)us x jitter)", iops)
	}
	if lat := res.AvgLatencyUS(); lat > 15 {
		t.Fatalf("latency %.1fus should stay near the device's 10us", lat)
	}
}

func TestJobsSplitRegions(t *testing.T) {
	dev := &fakeDev{lat: 5 * sim.Microsecond}
	run(t, dev, fio.Spec{Name: "x", Pattern: fio.RandRead,
		BlockSize: 4096, IODepth: 1, NumJobs: 4, Runtime: 5 * sim.Millisecond})
	// Each job's LBAs stay in its quarter of the device.
	quarter := uint64(1<<20) / 4
	buckets := map[int]int{}
	for _, lba := range dev.lbas {
		buckets[int(lba/quarter)]++
	}
	if len(buckets) != 4 {
		t.Fatalf("LBAs covered %d quarters, want 4", len(buckets))
	}
}

func TestTableIVPresets(t *testing.T) {
	cases := fio.TableIVCases(100 * sim.Millisecond)
	if len(cases) != 6 {
		t.Fatalf("%d cases", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		names[c.Name] = true
		if c.Runtime != 100*sim.Millisecond {
			t.Fatalf("%s runtime not propagated", c.Name)
		}
	}
	for _, want := range []string{"rand-r-1", "rand-r-128", "rand-w-1", "rand-w-16", "seq-r-256", "seq-w-256"} {
		if !names[want] {
			t.Fatalf("missing case %s", want)
		}
	}
}

// BenchmarkFioWorkerStart is what a phase boundary costs: one Run of a
// 1 × QD 64 spec whose runtime ends inside the first I/O, so an op is one job
// process and 64 worker start-ups — a stream seeded in place in the worker,
// two bound callbacks — and one I/O each. Deep sequential phases restart
// thousands of workers that complete three or four I/Os apiece, so this is
// where their allocations are; allocs/op and B/op have ceilings in
// scripts/bench_allocs_baseline.txt.
func BenchmarkFioWorkerStart(b *testing.B) {
	env := sim.NewEnv(7)
	dev := &fakeDev{env: env, lat: 50 * sim.Microsecond}
	spec := fio.Spec{Name: "seqr256", Seed: "round12", Pattern: fio.SeqRead,
		BlockSize: 128 << 10, IODepth: 64, NumJobs: 1, Runtime: 10 * sim.Microsecond}
	devs := []host.BlockDevice{dev}
	round := func() {
		dev.lbas, dev.sizes = dev.lbas[:0], dev.sizes[:0]
		main := env.Go("fio", func(p *sim.Proc) { fio.Run(p, devs, spec) })
		env.RunUntilEvent(main.Done())
	}
	round() // coroutines, event free list and the device's record slices grow here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if dev.reads != 64*(b.N+1) {
		b.Fatalf("%d reads over %d rounds, want one per worker per round", dev.reads, b.N+1)
	}
	env.Shutdown()
}

// TestRunRejectsPartialBlocks: a block size that is not a whole number of
// the device's blocks would be truncated to the whole blocks it holds while
// the result still counted the full size as moved, so Run refuses the spec.
func TestRunRejectsPartialBlocks(t *testing.T) {
	for _, bs := range []int{1000, 6144} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "bad spec") {
					t.Errorf("bs %d: recovered %v, want the bad-spec panic", bs, r)
				}
			}()
			run(t, &fakeDev{lat: sim.Microsecond}, fio.Spec{Name: "x", Pattern: fio.RandRead,
				BlockSize: bs, IODepth: 1, NumJobs: 1, Runtime: sim.Millisecond})
		}()
	}
}

// TestRunRejectsBadWindowAndMix: a measurement window that is not positive, a
// negative ramp or a read share outside 0..100 used to run and report an
// all-zero (or all-one-direction) result; Run refuses the spec instead.
func TestRunRejectsBadWindowAndMix(t *testing.T) {
	ok := fio.Spec{Name: "x", Pattern: fio.RandRW, BlockSize: 4096, IODepth: 1, NumJobs: 1, Runtime: sim.Millisecond}
	for _, c := range []struct {
		name string
		bend func(*fio.Spec)
	}{
		{"runtime 0", func(s *fio.Spec) { s.Runtime = 0 }},
		{"runtime -5ms", func(s *fio.Spec) { s.Runtime = -5 * sim.Millisecond }},
		{"ramp -1ms", func(s *fio.Spec) { s.Ramp = -sim.Millisecond }},
		{"rwmixread -1", func(s *fio.Spec) { s.RWMixRead = -1 }},
		{"rwmixread 101", func(s *fio.Spec) { s.RWMixRead = 101 }},
	} {
		spec := ok
		c.bend(&spec)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "bad spec") {
					t.Errorf("%s: recovered %v, want the bad-spec panic", c.name, r)
				}
			}()
			run(t, &fakeDev{lat: sim.Microsecond}, spec)
		}()
	}
	for _, mix := range []int{0, 100} {
		spec := ok
		spec.RWMixRead = mix
		if res := run(t, &fakeDev{lat: sim.Microsecond}, spec); res.IOPS() == 0 {
			t.Errorf("rwmixread %d: no I/O", mix)
		}
	}
}
