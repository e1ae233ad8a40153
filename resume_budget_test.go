package bmstore_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/fio"
	"bmstore/internal/fleet"
	"bmstore/internal/host"
	"bmstore/internal/sim"
	"bmstore/internal/trace"
)

// resumesByName counts a trace dump's `sim resume` records by process name:
// each is one coroutine hand-off, a process woken from a wait or started.
func resumesByName(dump []byte) map[string]int {
	n := map[string]int{}
	for _, line := range strings.Split(string(dump), "\n") {
		if f := strings.Fields(line); len(f) == 6 && f[1] == "sim" && f[2] == "resume" {
			n[f[5]]++
		}
	}
	return n
}

// resumesOf sums the counts of the processes whose names start with one of
// prefixes.
func resumesOf(n map[string]int, prefixes ...string) int {
	sum := 0
	for name, c := range n {
		for _, pre := range prefixes {
			if strings.HasPrefix(name, pre) {
				sum += c
				break
			}
		}
	}
	return sum
}

// fioResumeBudget is the I/O path's budget for fio: the processes fio and the
// driver own (its jobs, a recovery) may resume at most once per ten
// completed I/Os.
func fioResumeBudget(resumes map[string]int, ios uint64) error {
	got := resumesOf(resumes, "fio/", "host/")
	if ios == 0 || float64(got) > 0.1*float64(ios) {
		return fmt.Errorf("%d fio and driver process resumes over %d completed I/Os, budget 0.1 per I/O", got, ios)
	}
	return nil
}

// tableVRun runs body on the Table V rig — one SSD behind the engine, a
// tenant driver with four queues — with a dump tracer, and returns the
// resume counts and the I/Os the driver completed inside body.
func tableVRun(t *testing.T, seed int64, body func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice)) (map[string]int, uint64) {
	t.Helper()
	cfg := bmstore.DefaultConfig()
	cfg.Seed = seed
	cfg.NumSSDs = 1
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	var ios uint64
	bmstore.Scenario{Config: cfg, Body: func(tb *bmstore.Testbed, p *sim.Proc) {
		if err := tb.Console.CreateNamespace(p, "vol", 1536<<30, []int{0}); err != nil {
			panic(err)
		}
		if err := tb.Console.Bind(p, "vol", 0); err != nil {
			panic(err)
		}
		drv, err := tb.AttachTenant(p, 0, host.DefaultDriverConfig())
		if err != nil {
			panic(err)
		}
		devs := make([]host.BlockDevice, 4)
		for i := range devs {
			devs[i] = drv.BlockDev(i)
		}
		c0 := drv.Counters().Completed
		body(p, tb.Env, devs)
		ios = drv.Counters().Completed - c0
	}}.Run(bmstore.WithTrace(tr))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return resumesByName(dump.Bytes()), ios
}

// TestResumeBudget holds the I/O path to what it costs in coroutine
// hand-offs, counted exactly from the kernel's `sim resume` records, on the
// Table V rig (one SSD, 4 jobs × QD 128):
//
//   - fio.Run: its workers are callbacks; only its four job processes
//     resume, each once to start and once when its workers are done — far
//     under 0.1 per completed I/O;
//   - a process calling ReadAt resumes exactly once per I/O (plus its start);
//   - a fleet host's tenants are callbacks: no tenant or driver process
//     resumes at all.
//
// A planted fio-shaped worker that blocks in a process per I/O, as fio's did,
// must fail the fio budget.
func TestResumeBudget(t *testing.T) {
	spec := fio.Spec{Name: "randr128", Pattern: fio.RandRead, BlockSize: 4096,
		IODepth: 128, NumJobs: 4, Runtime: 2 * sim.Millisecond}
	for _, seed := range []int64{1, 2} {
		resumes, ios := tableVRun(t, seed, func(p *sim.Proc, _ *sim.Env, devs []host.BlockDevice) {
			fio.Run(p, devs, spec)
		})
		if err := fioResumeBudget(resumes, ios); err != nil {
			t.Errorf("seed %d: fio.Run: %v", seed, err)
		}
		if got, want := resumesOf(resumes, "fio/", "host/"), 2*spec.NumJobs; got != want {
			t.Errorf("seed %d: fio.Run: %d fio and driver process resumes, want %d (each job: start, end)", seed, got, want)
		}

		const perCaller = 3
		resumes, ios = tableVRun(t, seed, func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice) {
			var done []*sim.Event
			for j, dev := range devs {
				for w := 0; w < spec.IODepth; w++ {
					done = append(done, env.Go(fmt.Sprintf("reader/%d.%d", j, w), func(rp *sim.Proc) {
						for i := 0; i < perCaller; i++ {
							if err := dev.ReadAt(rp, uint64(w*perCaller+i)*8, 1, nil); err != nil {
								panic(err)
							}
						}
					}).Done())
				}
			}
			for _, ev := range done {
				p.Wait(ev)
			}
		})
		callers := spec.NumJobs * spec.IODepth
		if ios != uint64(callers*perCaller) {
			t.Fatalf("seed %d: %d I/Os completed, want %d", seed, ios, callers*perCaller)
		}
		if got, want := resumesOf(resumes, "reader/"), callers*(perCaller+1); got != want {
			t.Errorf("seed %d: ReadAt callers resumed %d times, want %d (one start, one per I/O)", seed, got, want)
		}
		if got := resumesOf(resumes, "host/"); got != 0 {
			t.Errorf("seed %d: ReadAt: %d driver process resumes, want 0", seed, got)
		}

		// The plant: the same workload with fio's workers as processes that
		// block in ReadAt and sleep the completion CPU, one loop per worker.
		resumes, ios = tableVRun(t, seed, func(p *sim.Proc, env *sim.Env, devs []host.BlockDevice) {
			end := env.Now() + spec.Runtime
			var done []*sim.Event
			for j, dev := range devs {
				rng := env.Rand(fmt.Sprintf("plant/%d", j))
				for w := 0; w < spec.IODepth; w++ {
					done = append(done, env.Go(fmt.Sprintf("fio/plant/j%d.%d", j, w), func(wp *sim.Proc) {
						for wp.Now() < end {
							if err := dev.ReadAt(wp, uint64(rng.Intn(1<<20))*8, 1, nil); err != nil {
								panic(err)
							}
							wp.Sleep(dev.PerIOCPU())
						}
					}).Done())
				}
			}
			for _, ev := range done {
				p.Wait(ev)
			}
		})
		if err := fioResumeBudget(resumes, ios); err == nil {
			t.Errorf("seed %d: a worker that blocks in a process per I/O passed the fio budget", seed)
		}
	}

	o := fleet.Options{Hosts: 1, WaveSize: 1, MaxTenants: 4, Seed: 3,
		Warmup: 20 * sim.Millisecond, Cooldown: 10 * sim.Millisecond,
		FWCommitMin: 60 * sim.Millisecond, FWCommitMax: 90 * sim.Millisecond}
	var dump bytes.Buffer
	o.Traces = trace.NewSet(trace.Options{Dump: &dump})
	hr := fleet.RunHost(o, 0)
	if err := o.Traces.Flush(&dump); err != nil {
		t.Fatal(err)
	}
	if !hr.Healthy || hr.Ops == 0 {
		t.Fatalf("fleet host: healthy %v, %d ops (%s)", hr.Healthy, hr.Ops, hr.Reason)
	}
	if got := resumesOf(resumesByName(dump.Bytes()), "tenant", "host/"); got != 0 {
		t.Errorf("fleet host: %d tenant and driver process resumes over %d tenant I/Os, want 0", got, hr.Ops)
	}
}
