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
	return runOne(cfg, run.harness(experiments.Scale{}).Options("run0000"), dcfg, experiments.SchemeNamed("bmstore"), spec)
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
// and on BM-Store striped over two SSDs, with the trace digest on, and holds
// each run's stdout (the wall-clock line goes to stderr) to the bytes the
// command printed before the schemes were defined in one table: the digest
// covers every kernel event of bring-up and workload, so a scheme whose rig
// is built or attached differently fails here. The trace lines were retaken
// once, when fio's workers stopped being processes: the kernel's spawn and
// resume records changed and every other record stayed byte for byte.
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
  trace     : 33776 events, digest fnv64w:23b4628625ca0a15
`},
		{[]string{"-scheme", "vfio"}, `randread on vfio (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 295000
  bandwidth : 1208.3 MB/s
  avg lat   : 1010.2 us
  p50       : 1032.2 us
  p99       : 1703.9 us
  p99.9     : 1736.7 us
  trace     : 21366 events, digest fnv64w:05106b15bbe152f2
`},
		{[]string{"-scheme", "bmstore"}, `randread on bmstore (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 633500
  bandwidth : 2594.8 MB/s
  avg lat   : 647.8 us
  p50       : 753.7 us
  p99       : 819.2 us
  p99.9     : 835.6 us
  trace     : 54846 events, digest fnv64w:6753fab695bff1b7
`},
		{[]string{"-scheme", "bmstore-vm"}, `randread on bmstore-vm (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 295000
  bandwidth : 1208.3 MB/s
  avg lat   : 1009.8 us
  p50       : 1032.2 us
  p99       : 1703.9 us
  p99.9     : 1736.7 us
  trace     : 34274 events, digest fnv64w:bb94a847aed203b6
`},
		{[]string{"-scheme", "spdk"}, `randread on spdk (1 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 131500
  bandwidth : 538.6 MB/s
  avg lat   : 1568.7 us
  p50       : 1605.6 us
  p99       : 1966.1 us
  p99.9     : 1966.1 us
  trace     : 18253 events, digest fnv64w:c907143442d0b8b1
`},
		{[]string{"-scheme", "bmstore", "-ssds", "2"}, `randread on bmstore (2 SSDs): bs=4096 iodepth=128 numjobs=4
  IOPS      : 813500
  bandwidth : 3332.1 MB/s
  avg lat   : 530.8 us
  p50       : 589.8 us
  p99       : 671.7 us
  p99.9     : 704.5 us
  trace     : 65950 events, digest fnv64w:de5ad3e204e0d1ea
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
