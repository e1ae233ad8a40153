package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"bmstore"
	"bmstore/internal/fault"
	"bmstore/internal/sim"
)

func TestPoolDefaultWorkers(t *testing.T) {
	for _, w := range []int{0, -1, -100} {
		if got := NewPool(w).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("NewPool(%d).Workers() = %d, want GOMAXPROCS = %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := NewPool(3).Workers(); got != 3 {
		t.Fatalf("NewPool(3).Workers() = %d", got)
	}
}

func TestPoolEachEmpty(t *testing.T) {
	ran := false
	NewPool(4).Each(0, func(int) { ran = true })
	NewPool(4).Each(-5, func(int) { ran = true })
	if ran {
		t.Fatal("Each ran jobs for n <= 0")
	}
}

// Every job must run exactly once, whether the pool is serial, matched,
// or oversubscribed (more workers than jobs).
func TestPoolRunsEveryJobOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 17}, {4, 4}, {4, 100}, {16, 3}, {8, 1},
	} {
		counts := make([]int32, tc.n)
		NewPool(tc.workers).Each(tc.n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: job %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}

// A single-worker pool must execute jobs in index order on the calling
// goroutine — that is what makes -parallel 1 a true serial baseline.
func TestPoolSerialOrder(t *testing.T) {
	var order []int
	NewPool(1).Each(10, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order[%d] = %d", i, got)
		}
	}
}

// A panicking job must not take down its siblings, and the re-panic must be
// deterministic: always the lowest-indexed failure, no matter which worker
// hit it first. Job 3 panics inside a simulation process: the kernel raises
// that in the goroutine driving the environment — the pool's worker — so it
// is a job failure like any other, not the end of the program.
func TestPoolPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran [12]int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, `job 3 panicked: sim: process "rig" panicked: boom-3`) {
					t.Fatalf("workers=%d: panic %q, want lowest failed job 3", workers, msg)
				}
			}()
			NewPool(workers).Each(len(ran), func(i int) {
				atomic.AddInt32(&ran[i], 1)
				if i == 3 {
					env := sim.NewEnv(int64(i))
					defer env.Shutdown()
					env.Go("rig", func(p *sim.Proc) {
						p.Sleep(sim.Microsecond)
						panic(fmt.Sprintf("boom-%d", i))
					})
					env.Run()
				}
				if i == 7 {
					panic(fmt.Sprintf("boom-%d", i))
				}
			})
		}()
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times despite sibling panic", workers, i, c)
			}
		}
	}
}

// Jobs run concurrently when the pool allows it: with GOMAXPROCS > 1 this
// exercises real parallelism under -race; with 1 CPU it still exercises the
// multi-goroutine claiming path.
func TestPoolConcurrentClaiming(t *testing.T) {
	var sum int64
	n := 500
	NewPool(8).Each(n, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	want := int64(n*(n-1)) / 2
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestHarnessSerial(t *testing.T) {
	h := NewHarness(Fast(), 1, nil)
	if h.Parallelism() != 1 {
		t.Fatalf("Serial harness parallelism = %d", h.Parallelism())
	}
	cfg := h.config("rig", 99)
	if cfg.Seed != 99 {
		t.Fatalf("config seed = %d", cfg.Seed)
	}
	tb, err := bmstore.NewDirectTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Env.Tracer() != nil {
		t.Fatal("untraced harness attached a tracer")
	}
}

// TestProvisioningFailureStopsTheExperiment: a fault schedule armed through
// WithFaults can fail the out-of-band provisioning itself. The experiment must
// stop there, on the console's error, and not carry on to measure (or to trip
// over, several steps later) a rig whose volume was never created or bound.
func TestProvisioningFailureStopsTheExperiment(t *testing.T) {
	rules, err := fault.ParseSpec("mctp-drop,count=-1")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(Fast(), 1, nil).WithFaults(rules)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "console: MI op") {
			t.Fatalf("the experiment did not stop at the failed provisioning step: %s", msg)
		}
	}()
	qosPoint(h.config("qos/faulted", 1), h.Scale, false)
}
