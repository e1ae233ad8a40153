package bmstore_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/apps/kvstore"
	"bmstore/internal/apps/minidb"
	"bmstore/internal/apps/sysbench"
	"bmstore/internal/apps/ycsb"
	"bmstore/internal/experiments"
	"bmstore/internal/fio"
	"bmstore/internal/fleet"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
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

// markCommit is the record commitProbe leaves just before a submitted write's
// completion runs.
var markCommit = trace.NewKey("test", "commit")

// commitProbe is a block device that, when a submitted write completes,
// queues a zero-delay mark ahead of the completion: the mark's entry is then
// the one queued just before whatever the completion queues first, which for
// a log's batch write is the event its committers wait on.
type commitProbe struct {
	host.BlockDevice
	env *sim.Env
	tr  *trace.Tracer
}

func (c *commitProbe) Submit(op uint8, lba uint64, blocks uint32, buf []byte, done func(host.IOOutcome)) {
	if op == nvme.IOWrite {
		written := done
		done = func(oc host.IOOutcome) {
			c.env.Schedule(0, func() { c.tr.Emit(c.env.Now(), markCommit, 0, 0, "") })
			written(oc)
		}
	}
	c.BlockDevice.Submit(op, lba, blocks, buf, done)
}

// commitTally reads a trace dump as it is written and counts what the
// application tier's group commit costs in processes: the spawn and resume
// records of a log writer process (kv/wal, minidb/redo), and the committers
// (ycsb/ and sysbench/ threads) that a commit round's wake resumes. A wake is
// the fire of the entry queued right after a commit mark's, so its sequence
// number is the mark's plus one.
type commitTally struct {
	rest       []byte
	lastFire   uint64 // sequence number of the last fire record
	markSeq    uint64 // the last mark's entry, until the next fire
	inWake     bool   // the records since the last fire are a wake's
	writerRecs int
	wakes      int // wakes that resumed a committer
	woken      int // committer resumes inside wakes
	wakeWoke   bool
}

func (c *commitTally) Write(b []byte) (int, error) {
	c.rest = append(c.rest, b...)
	start := 0
	for {
		i := bytes.IndexByte(c.rest[start:], '\n')
		if i < 0 {
			break
		}
		c.line(string(c.rest[start : start+i]))
		start += i + 1
	}
	c.rest = c.rest[:copy(c.rest, c.rest[start:])]
	return len(b), nil
}

func (c *commitTally) line(line string) {
	f := strings.Fields(line)
	if len(f) < 5 {
		return
	}
	switch {
	case f[1] == "sim" && f[2] == "fire":
		seq, _ := strconv.ParseUint(strings.TrimPrefix(f[3], "a=0x"), 16, 64)
		c.inWake = c.markSeq != 0 && seq == c.markSeq+1
		c.lastFire, c.markSeq, c.wakeWoke = seq, 0, false
	case f[1] == "test" && f[2] == "commit":
		c.markSeq = c.lastFire
	case f[1] == "sim" && (f[2] == "spawn" || f[2] == "resume") && len(f) == 6:
		if f[5] == "kv/wal" || f[5] == "minidb/redo" {
			c.writerRecs++
		}
		if c.inWake && f[2] == "resume" && (strings.HasPrefix(f[5], "ycsb/") || strings.HasPrefix(f[5], "sysbench/")) {
			c.woken++
			if !c.wakeWoke {
				c.wakes++
				c.wakeWoke = true
			}
		}
	}
}

// TestResumeBudgetGroupCommit holds the application tier's group commit to
// what it costs in coroutine hand-offs, counted from the kernel's records on
// a traced rig of a kvstore + YCSB-A guest and a minidb + sysbench guest (the
// apps-mixed shape): neither log runs a writer process — no record names
// kv/wal or minidb/redo — and each commit resumes its committer once, on the
// one event its round's write completion triggers for all of that round's
// committers.
func TestResumeBudgetGroupCommit(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		cfg := bmstore.DefaultConfig()
		cfg.Seed = seed
		cfg.NumSSDs = 2
		cfg.CaptureData = true
		tally := &commitTally{}
		tr := trace.New(trace.Options{Dump: tally})
		cut := experiments.Fast().AppLoadCut
		ycfg := ycsb.DefaultYCSB()
		ycfg.Records /= cut
		ycfg.Threads = 4
		ycfg.Duration = 5 * sim.Millisecond
		scfg := sysbench.DefaultConfig()
		scfg.TableSize /= cut
		scfg.Threads = 8
		scfg.Duration = 5 * sim.Millisecond
		var commits uint64
		bmstore.Scenario{Config: cfg, Body: func(tb *bmstore.Testbed, p *sim.Proc) {
			env := p.Env()
			vm := host.KVMGuest()
			var devs [2]host.BlockDevice
			for i := range devs {
				name := fmt.Sprintf("vm%d", i)
				if err := tb.Console.CreateNamespace(p, name, 256<<30, []int{i}); err != nil {
					panic(err)
				}
				if err := tb.Console.Bind(p, name, uint8(i)); err != nil {
					panic(err)
				}
				dcfg := host.DefaultDriverConfig()
				dcfg.VM = &vm
				drv, err := tb.AttachTenant(p, pcie.FuncID(i), dcfg)
				if err != nil {
					panic(err)
				}
				devs[i] = &commitProbe{BlockDevice: drv.BlockDev(0), env: env, tr: tr}
			}
			store, err := kvstore.Open(p, env, devs[0], kvstore.DefaultConfig())
			if err != nil {
				panic(err)
			}
			if err := ycsb.Load(p, store, ycfg); err != nil {
				panic(err)
			}
			dbc := minidb.DefaultConfig()
			dbc.PoolPages = 256
			db, err := minidb.Open(p, env, devs[1], dbc)
			if err != nil {
				panic(err)
			}
			if err := sysbench.Load(p, db, scfg); err != nil {
				panic(err)
			}
			puts, txns := store.Stats.Puts, db.Stats.Txns
			mysql := env.Go("bench/mysql", func(vp *sim.Proc) { sysbench.Run(vp, env, db, scfg) })
			ycsb.Run(p, env, store, ycsb.WorkloadA(), ycfg)
			p.Wait(mysql.Done())
			commits = store.Stats.Puts - puts + db.Stats.Txns - txns
		}}.Run(bmstore.WithTrace(tr))
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if tally.writerRecs != 0 {
			t.Errorf("seed %d: %d spawn and resume records name a log writer process, want 0", seed, tally.writerRecs)
		}
		if commits == 0 || uint64(tally.woken) != commits {
			t.Errorf("seed %d: round wakes resumed committers %d times over %d commits, want one per commit", seed, tally.woken, commits)
		}
		if tally.wakes >= tally.woken {
			t.Errorf("seed %d: %d round wakes for %d committer resumes: no round woke more than one committer", seed, tally.wakes, tally.woken)
		}
		t.Logf("seed %d: %d commits, %d committer resumes on %d round wakes", seed, commits, tally.woken, tally.wakes)
	}
}
