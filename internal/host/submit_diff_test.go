package host_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bmstore/internal/fault"
	"bmstore/internal/host"
	"bmstore/internal/nvme"
	"bmstore/internal/pcie"
	"bmstore/internal/sim"
	"bmstore/internal/ssd"
	"bmstore/internal/trace"
)

// diffCase is one condition the two I/O APIs are compared under.
type diffCase struct {
	name   string
	kernel host.KernelProfile
	faults string
	dcfg   func(*host.DriverConfig)
	// exercised checks that the rig reached what the case is for.
	exercised func(c host.IOCounters, outs [][]host.IOOutcome) error
}

// diffRun drives one seeded stream of I/Os — four streams, one per queue,
// each a closed loop of reads and writes of random size and place — through
// the driver on a native rig, either as Submit callbacks or as processes
// parked on host.Parking.IO. It returns each stream's outcomes,
// the trace records of every component but the kernel's, the kernel events
// fired and the driver's counters.
func diffRun(t *testing.T, c diffCase, procs bool) ([][]host.IOOutcome, []string, uint64, host.IOCounters) {
	t.Helper()
	const streams, ops, maxBlocks = 4, 16, 64
	env := sim.NewEnv(5)
	var dump bytes.Buffer
	tr := trace.New(trace.Options{Dump: &dump})
	env.SetTracer(tr)
	var err error
	if c.faults != "" {
		rules, perr := fault.ParseSpec(c.faults)
		if perr != nil {
			t.Fatal(perr)
		}
		env.SetFaults(fault.New(rules...))
	}
	h := host.New(env, 768<<30, c.kernel)
	cfg := ssd.P4510("SN001")
	dev := ssd.New(env, cfg)
	port := h.Connect(pcie.NewLink(env, 4, 300*sim.Nanosecond), dev, nil)
	dev.Attach(port)
	dcfg := host.DefaultDriverConfig()
	dcfg.CreateNSBlocks = cfg.CapacityBytes / ssd.BlockSize
	if c.dcfg != nil {
		c.dcfg(&dcfg)
	}
	var drv *host.Driver
	env.Go("attach", func(p *sim.Proc) {
		if drv, err = host.AttachDriver(p, h, port, 0, dcfg); err != nil {
			panic(err)
		}
	})
	env.Run()

	outs := make([][]host.IOOutcome, streams)
	var pk host.Parking
	for s := range outs {
		rng := env.Rand(fmt.Sprintf("diff/%d", s))
		bd := drv.BlockDev(s)
		draw := func() (uint8, uint64, uint32) {
			op := uint8(nvme.IORead)
			if rng.Intn(3) == 0 {
				op = nvme.IOWrite
			}
			return op, uint64(rng.Intn(1<<16)) * maxBlocks, uint32(1 + rng.Intn(maxBlocks))
		}
		if procs {
			env.Go(fmt.Sprintf("stream%d", s), func(p *sim.Proc) {
				for range ops {
					op, lba, n := draw()
					outs[s] = append(outs[s], pk.IO(p, bd, op, lba, n, nil))
				}
			})
			continue
		}
		// The same loop as callbacks: a zero-delay entry where the process
		// starts and another where its Done event fires.
		var next func()
		done := func(oc host.IOOutcome) {
			outs[s] = append(outs[s], oc)
			next()
		}
		next = func() {
			if len(outs[s]) == ops {
				env.Schedule(0, func() {})
				return
			}
			op, lba, n := draw()
			bd.Submit(op, lba, n, nil, done)
		}
		env.Schedule(0, next)
	}
	env.Run()
	env.Shutdown()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var model []string
	for _, line := range strings.Split(dump.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] != "sim" {
			model = append(model, line)
		}
	}
	return outs, model, env.Events(), drv.Counters()
}

// TestSubmitMatchesParkedProcessAPI: Submit's callback chain and the
// process API over it (one park per I/O) are one data path. The same seeded
// stream through either must end every I/O the same way — status, attempts,
// in doubt or not — and leave the same trace records from every component
// but the kernel, and fire the same kernel events, under slow media with the
// driver's timeouts and retries armed, a dropped drive, and a kernel whose
// in-path costs are zero (where the interrupt handler queues the completion
// callback instead of running it in place).
func TestSubmitMatchesParkedProcessAPI(t *testing.T) {
	recovery := func(d *host.DriverConfig) {
		d.CmdTimeout, d.MaxRetries, d.RetryBackoff = sim.Millisecond, 3, 100*sim.Microsecond
	}
	zeroCost := host.CentOS("3.10.0")
	zeroCost.SubmitLatency, zeroCost.CompleteLatency, zeroCost.PerIOCPU = 0, 0, 0
	for _, c := range []diffCase{
		{"media-slow", host.CentOS("3.10.0"), "media-slow,nth=5,count=-1,dur=2ms", recovery,
			func(c host.IOCounters, _ [][]host.IOOutcome) error {
				if c.Timeouts == 0 || c.Retries == 0 || c.Stragglers == 0 {
					return fmt.Errorf("no timeout, retry and straggler: %+v", c)
				}
				return nil
			}},
		{"ssd-drop", host.CentOS("3.10.0"), "ssd-drop,t=1ms,target=SN001", recovery,
			func(c host.IOCounters, outs [][]host.IOOutcome) error {
				for _, s := range outs {
					for _, oc := range s {
						if oc.TimedOut && oc.Status == nvme.StatusAborted && oc.Attempts == 4 {
							return nil
						}
					}
				}
				return fmt.Errorf("no episode exhausted its retries in doubt: %+v", c)
			}},
		{"zero-cost kernel", zeroCost, "media-slow,nth=5,count=-1,dur=2ms", recovery,
			func(c host.IOCounters, _ [][]host.IOOutcome) error {
				if c.Completed == 0 || c.Timeouts == 0 {
					return fmt.Errorf("no completion or no timeout: %+v", c)
				}
				return nil
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cbOuts, cbModel, cbEvents, counters := diffRun(t, c, false)
			prOuts, prModel, prEvents, _ := diffRun(t, c, true)
			if err := c.exercised(counters, cbOuts); err != nil {
				t.Fatalf("the rig does not exercise its condition: %v", err)
			}
			for s := range cbOuts {
				if len(cbOuts[s]) != len(prOuts[s]) {
					t.Fatalf("stream %d: %d outcomes by Submit, %d by ReadAt/WriteAt", s, len(cbOuts[s]), len(prOuts[s]))
				}
				for i := range cbOuts[s] {
					if cbOuts[s][i] != prOuts[s][i] {
						t.Errorf("stream %d I/O %d: Submit %+v, ReadAt/WriteAt %+v", s, i, cbOuts[s][i], prOuts[s][i])
					}
				}
			}
			if len(cbModel) != len(prModel) {
				t.Errorf("%d model records by Submit, %d by ReadAt/WriteAt", len(cbModel), len(prModel))
			}
			for i := range min(len(cbModel), len(prModel)) {
				if cbModel[i] != prModel[i] {
					t.Fatalf("model record %d differs:\n  Submit:       %s\n  ReadAt/WriteAt: %s", i, cbModel[i], prModel[i])
				}
			}
			if cbEvents != prEvents {
				t.Errorf("%d kernel events by Submit, %d by ReadAt/WriteAt", cbEvents, prEvents)
			}
		})
	}
}
