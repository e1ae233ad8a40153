package main

import (
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/experiments"
	"bmstore/internal/fio"
	"bmstore/internal/host"
	"bmstore/internal/sim"
)

// runWith is runOne on a one-SSD BM-Store rig at seed 42 under a fault
// schedule, with the driver's recovery armed as `bmsctl fio` arms it unless a
// mutate changes that.
func runWith(t *testing.T, spec fio.Spec, faults string, mutate ...func(*host.DriverConfig)) (*fio.Result, uint64, error) {
	t.Helper()
	ropts := runOptions{faults: faults, sampleEvery: 64, parallel: 1}
	if err := ropts.validate(); err != nil {
		t.Fatal(err)
	}
	run, err := ropts.build()
	if err != nil {
		t.Fatal(err)
	}
	defer run.close()
	cfg := bmstore.DefaultConfig()
	cfg.Seed = 42
	cfg.NumSSDs = 1
	dcfg := run.driverConfig()
	for _, m := range mutate {
		m(&dcfg)
	}
	res, injected, _, err := runOne(cfg, run.harness(experiments.Scale{}).Options("run0000"), dcfg, experiments.SchemeNamed("bmstore"), spec)
	return res, injected, err
}

// TestDeadRunIsAnErrorNotAPanic pins `bmsctl fio`'s contract for a run the
// fault schedule kills: a drive dropped for good exhausts the driver's
// retries, fio stops at the first failed I/O, and runOne hands that back as
// an error naming the process and the status — the verb prints it on one
// line and exits 1 — together with the injections counted so far. The same
// rig without the drop completes.
func TestDeadRunIsAnErrorNotAPanic(t *testing.T) {
	spec := fio.Spec{
		Name: "randread", Pattern: fio.RandRead, BlockSize: 4096,
		IODepth: 4, NumJobs: 2, Runtime: 2 * sim.Millisecond,
	}
	res, injected, err := runWith(t, spec, "ssd-drop,t=1ms,target=PHLJ0000")
	if err == nil || res != nil {
		t.Fatalf("a run whose only drive is dropped returned result %v, error %v; want an error", res, err)
	}
	for _, want := range []string{`process "fio/randread/`, "I/O error", "status 0x7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.ContainsAny(err.Error(), "\n") {
		t.Errorf("error spans several lines: %q", err)
	}
	if injected == 0 {
		t.Error("the drop was not counted as injected")
	}
	if res, _, err := runWith(t, spec, "media-slow,nth=50,count=-1,dur=100us"); err != nil || res == nil || res.IOPS() == 0 {
		t.Fatalf("a survivable schedule: result %v, error %v", res, err)
	}
}

// deepSpec is `bmsctl fio`'s default shape: 4 jobs × QD 128.
var deepSpec = fio.Spec{
	Name: "randread", Pattern: fio.RandRead, BlockSize: 4096,
	IODepth: 128, NumJobs: 4, Runtime: 100 * sim.Millisecond, Ramp: 10 * sim.Millisecond,
}

// TestDeepQueueDropFailsLikeAShallowOne: with the only drive dropped for good
// at 4 jobs × QD 128, every timed-out CID is zombied and the zombies
// outnumber the ring's slots before any I/O has used up its retries. The wait
// for a slot is bounded like the wait for a CQE, so the run ends in the same
// one-line I/O error as at 2 × QD 4 — it used to wedge every worker on the
// slot count for good.
func TestDeepQueueDropFailsLikeAShallowOne(t *testing.T) {
	res, injected, err := runWith(t, deepSpec, "ssd-drop,t=20ms,target=PHLJ0000")
	if err == nil || res != nil {
		t.Fatalf("a run whose only drive is dropped returned result %v, error %v; want an error", res, err)
	}
	for _, want := range []string{`process "fio/randread/`, "I/O error", "status 0x7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if injected != 1 {
		t.Errorf("%d injections counted, want the drop", injected)
	}
}

// TestWedgedRunEndsWithADiagnosis wedges what is still allowed to wedge: a
// drive dropped for good under a driver with no command timeout, which waits
// for its CQEs for ever — while the BMS-Controller's monitor keeps the event
// queue from ever draining. runOne stops at the horizon computed from the
// spec and reports the kernel's diagnosis in one line.
func TestWedgedRunEndsWithADiagnosis(t *testing.T) {
	noTimeout := func(dcfg *host.DriverConfig) { dcfg.CmdTimeout, dcfg.MaxRetries, dcfg.RetryBackoff = 0, 0, 0 }
	res, injected, err := runWith(t, deepSpec, "ssd-drop,t=20ms,target=PHLJ0000", noTimeout)
	if err == nil || res != nil {
		t.Fatalf("a wedged run returned result %v, error %v; want the watchdog's diagnosis", res, err)
	}
	for _, want := range []string{"still running at its horizon", "events pending", "processes blocked", "fio/randread/j0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.ContainsAny(err.Error(), "\n") || len(err.Error()) > 300 {
		t.Errorf("error is not one short line (%d bytes): %q", len(err.Error()), err)
	}
	if injected != 1 {
		t.Errorf("%d injections counted, want the drop", injected)
	}
}

// TestRunHorizonCoversTheAttemptBudget: the horizon is computed, not chosen
// — the window once per attempt, the slowest single episode (four bounded
// waits per attempt: SQ slot, CQE, and the same pair for the Abort), and
// bring-up.
func TestRunHorizonCoversTheAttemptBudget(t *testing.T) {
	spec := fio.Spec{Runtime: 100 * sim.Millisecond, Ramp: 10 * sim.Millisecond}
	if got, want := runHorizon(spec, host.DefaultDriverConfig()), 110*sim.Millisecond+sim.Second; got != want {
		t.Errorf("horizon without recovery %d, want window + bring-up = %d", got, want)
	}
	dcfg := host.DefaultDriverConfig()
	dcfg.CmdTimeout, dcfg.MaxRetries, dcfg.RetryBackoff = 5*sim.Millisecond, 8, 200*sim.Microsecond
	want := 9*110*sim.Millisecond + 9*4*5*sim.Millisecond + 256*200*sim.Microsecond + sim.Second
	if got := runHorizon(spec, dcfg); got != want {
		t.Errorf("horizon with 8 retries %d, want %d", got, want)
	}
}

// TestFioSchemesPinned runs `bmsctl fio` briefly on each of the five schemes,
// on BM-Store striped over two SSDs, on the write path (native and BM-Store:
// a write's SSD issue and the engine's DMA of its payload share an instant)
// and on a deep 128 KiB sequential phase (512 workers that complete an I/O
// or two each, every one drawing its CPU jitter from a fresh stream) and its
// write twin on one and two SSDs (the SSD walks the engine's global-PRP list
// and fetches the payload over it before the media phase), with the trace
// digest on, and holds
// each run's stdout (the wall-clock line goes to stderr) to the bytes the
// command printed before the schemes were defined in one table. The digest
// folds every model record of bring-up and workload, so a scheme whose rig is
// built or attached differently fails here; the kernel line counts the queue
// entries, spawns and resumes that ran them, which the digest leaves out, so
// a run that fires one event more or less fails there and says by how many.
// The trace lines were retaken twice: when fio's workers stopped being
// processes (the kernel's spawn and resume records changed, every other
// record stayed byte for byte), and when the kernel's records left the digest
// for the dump and the kernel line (no model record moved).
func TestFioSchemesPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "native"}, `randread on native (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 633500
  bandwidth : 2594.8 MB/s
  avg lat   : 648.0 us
  p50       : 753.7 us
  p99       : 819.2 us
  p99.9     : 835.6 us
  kernel    : 26532 events, 17 spawns, 51 resumes
  trace     : 7116 events, digest fnv64w:330703d68389d71c
`},
		{[]string{"-scheme", "vfio"}, `randread on vfio (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 295000
  bandwidth : 1208.3 MB/s
  avg lat   : 1010.2 us
  p50       : 1032.2 us
  p99       : 1703.9 us
  p99.9     : 1736.7 us
  kernel    : 16834 events, 17 spawns, 51 resumes
  trace     : 4404 events, digest fnv64w:cc4218a5ba02a71e
`},
		{[]string{"-scheme", "bmstore"}, `randread on bmstore (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 633500
  bandwidth : 2594.8 MB/s
  avg lat   : 647.8 us
  p50       : 753.7 us
  p99       : 819.2 us
  p99.9     : 835.6 us
  kernel    : 42157 events, 30 spawns, 97 resumes
  trace     : 12452 events, digest fnv64w:c1fbfae2c58be4bf
`},
		{[]string{"-scheme", "bmstore-vm"}, `randread on bmstore-vm (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 295000
  bandwidth : 1208.3 MB/s
  avg lat   : 1009.8 us
  p50       : 1032.2 us
  p99       : 1703.9 us
  p99.9     : 1736.7 us
  kernel    : 26338 events, 30 spawns, 97 resumes
  trace     : 7699 events, digest fnv64w:0241e466c5f8cfff
`},
		{[]string{"-scheme", "spdk"}, `randread on spdk (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 131500
  bandwidth : 538.6 MB/s
  avg lat   : 1568.7 us
  p50       : 1605.6 us
  p99       : 1966.1 us
  p99.9     : 1966.1 us
  kernel    : 15029 events, 17 spawns, 51 resumes
  trace     : 3096 events, digest fnv64w:fced73a68251dadb
`},
		{[]string{"-scheme", "bmstore", "-ssds", "2"}, `randread on bmstore (2 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 813500
  bandwidth : 3332.1 MB/s
  avg lat   : 530.8 us
  p50       : 589.8 us
  p99       : 671.7 us
  p99.9     : 704.5 us
  kernel    : 50652 events, 41 spawns, 134 resumes
  trace     : 14958 events, digest fnv64w:f374947a59627138
`},
		{[]string{"-scheme", "native", "-rw", "randwrite"}, `randwrite on native (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 351500
  bandwidth : 1439.7 MB/s
  avg lat   : 928.6 us
  p50       : 999.4 us
  p99       : 1441.8 us
  p99.9     : 1441.8 us
  kernel    : 16067 events, 17 spawns, 51 resumes
  trace     : 4864 events, digest fnv64w:c186c42e8b1fe7df
`},
		{[]string{"-scheme", "bmstore", "-rw", "randwrite"}, `randwrite on bmstore (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 351500
  bandwidth : 1439.7 MB/s
  avg lat   : 928.2 us
  p50       : 999.4 us
  p99       : 1441.8 us
  p99.9     : 1441.8 us
  kernel    : 26578 events, 30 spawns, 97 resumes
  trace     : 8504 events, digest fnv64w:5c0440ea1019532c
`},
		{[]string{"-scheme", "bmstore", "-rw", "read", "-bs", "131072"}, `read on bmstore (1 SSDs): bs=131072 iodepth=128 numjobs=4
  IOPS      : 23500
  bandwidth : 3080.2 MB/s
  avg lat   : 1071.0 us
  p50       : 1048.6 us
  p99       : 1966.1 us
  p99.9     : 1966.1 us
  kernel    : 20348 events, 30 spawns, 97 resumes
  trace     : 21255 events, digest fnv64w:2ffe9628a46a4b0d
`},
		{[]string{"-scheme", "bmstore", "-rw", "write", "-bs", "131072"}, `write on bmstore (1 SSDs): bs=131072 iodepth=128 numjobs=4
  IOPS      : 10500
  bandwidth : 1376.3 MB/s
  avg lat   : 1048.6 us
  p50       : 1048.6 us
  p99       : 1933.3 us
  p99.9     : 1933.3 us
  kernel    : 13051 events, 30 spawns, 97 resumes
  trace     : 20267 events, digest fnv64w:5d2a0ab071870748
`},
		// This row exists to drive both back ends: at eight jobs fio's job
		// regions start on chunks 0, 3, 6, …, which the namespace lays
		// round-robin over the two SSDs, so each SSD issues half the writes;
		// at four jobs every region would start on an even chunk, on the
		// first SSD.
		{[]string{"-scheme", "bmstore", "-ssds", "2", "-rw", "write", "-bs", "131072", "-numjobs", "8"}, `write on bmstore (2 SSDs): bs=131072 iodepth=128 numjobs=8
  IOPS      : 21000
  bandwidth : 2752.5 MB/s
  avg lat   : 1047.4 us
  p50       : 1032.2 us
  p99       : 1933.3 us
  p99.9     : 1933.3 us
  kernel    : 25940 events, 45 spawns, 142 resumes
  trace     : 40521 events, digest fnv64w:6f9727b8fdc838da
`},
	} {
		args := append([]string{"fio"}, tc.args...)
		args = append(args, "-runtime", "2ms", "-ramp", "0s", "-trace-digest")
		code, stdout, stderr := invoke(t, args...)
		if code != 0 || stdout != tc.want {
			t.Errorf("%v: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", args, code, stderr, stdout, tc.want)
		}
	}
}
