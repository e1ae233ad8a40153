package main

import (
	"strings"
	"testing"

	"bmstore"
	"bmstore/internal/cli"
	"bmstore/internal/fio"
	"bmstore/internal/sim"
)

// TestDeadRunIsAnErrorNotAPanic pins fiosim's contract for a run the fault
// schedule kills: a drive dropped for good exhausts the driver's retries,
// fio stops at the first failed I/O, and runOne hands that back as an error
// naming the process and the status — main prints it on one line and exits
// 1 — together with the injections counted so far. The same rig without the
// drop completes.
func TestDeadRunIsAnErrorNotAPanic(t *testing.T) {
	spec := fio.Spec{
		Name: "randread", Pattern: fio.RandRead, BlockSize: 4096,
		IODepth: 4, NumJobs: 2, Runtime: 2 * sim.Millisecond,
	}
	runWith := func(faults string) (*fio.Result, uint64, error) {
		ropts := cli.RunOptions{Faults: faults, Parallel: 1}
		run, err := ropts.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		cfg := bmstore.DefaultConfig()
		cfg.Seed = 42
		cfg.NumSSDs = 1
		return runOne(cfg, run.RigOptions("run0000"), run.DriverConfig(), "bmstore", 1, spec)
	}
	res, injected, err := runWith("ssd-drop,t=1ms,target=PHLJ0000")
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
	if res, _, err := runWith("media-slow,nth=50,count=-1,dur=100us"); err != nil || res == nil || res.IOPS() == 0 {
		t.Fatalf("a survivable schedule: result %v, error %v", res, err)
	}
}
