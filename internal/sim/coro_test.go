package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bmstore/internal/trace"
)

// A panic in a process body surfaces in the goroutine that drives the
// environment, named after the process, and leaves the environment usable.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	env := NewEnv(1)
	var bystanderEnd Time
	env.Go("bystander", func(p *Proc) {
		p.Sleep(10)
		bystanderEnd = p.Now()
	})
	boom := env.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("kaput")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	if want := `sim: process "boom" panicked: kaput`; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	if env.Now() != 5 || len(env.live) != 1 {
		t.Fatalf("after the panic: now %d, %d live processes; want 5 and the bystander", env.Now(), len(env.live))
	}
	env.Run()
	if bystanderEnd != 10 || !boom.Done().Processed() {
		t.Fatalf("resumed run: bystander ended at %d, boom done %v", bystanderEnd, boom.Done().Processed())
	}
	env.Shutdown()
}

// t.FailNow is runtime.Goexit after marking the test failed. Called inside a
// process it must end the goroutine driving the environment — the test's —
// instead of leaving it waiting for a hand-off that never comes. A real
// failing subtest would fail this test too, so the Goexit is made directly.
func TestGoexitInsideProcessEndsRunCaller(t *testing.T) {
	env := NewEnv(1)
	env.Go("server", func(p *Proc) { p.Wait(env.NewEvent()) })
	env.Go("failer", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer env.Shutdown() // what a test's deferred cleanup does
		env.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after a process called runtime.Goexit")
	}
	if returned {
		t.Fatal("Run returned normally; the Goexit was swallowed")
	}
	if len(env.live) != 0 {
		t.Fatalf("%d processes live after shutdown", len(env.live))
	}
}

// Shutdown unwinds blocked processes, drops never-started ones without
// running them, and stops the parked coroutines: no goroutine outlives it.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	for i := 0; i < 4; i++ {
		env.Go("finished", func(p *Proc) { p.Sleep(1) })
		env.Go("blocked", func(p *Proc) { p.Wait(env.NewEvent()) })
	}
	env.Run()
	if len(env.coFree) != 4 {
		t.Fatalf("%d coroutines parked after four processes finished, want 4", len(env.coFree))
	}
	ran := false
	never := env.Go("never-started", func(p *Proc) { ran = true })
	env.Shutdown()
	if ran || never.Done().Triggered() {
		t.Fatal("a process that never started ran, or signalled Done, at shutdown")
	}
	if len(env.live) != 0 || len(env.coFree) != 0 {
		t.Fatalf("after shutdown: %d live processes, %d parked coroutines", len(env.live), len(env.coFree))
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after shutdown, %d before NewEnv", after, before)
	}
	// The environment still works, on fresh coroutines.
	env.Go("late", func(p *Proc) { ran = true })
	env.Run()
	if !ran {
		t.Fatal("process spawned after shutdown did not run")
	}
	env.Shutdown()
}

// Processes that run one after another share one coroutine, and a coroutine
// whose process was aborted mid-wait runs the next body like any other.
func TestCoroutineReuse(t *testing.T) {
	env := NewEnv(1)
	sum := 0
	for i := 1; i <= 100; i++ {
		env.Go("serial", func(p *Proc) {
			p.Sleep(1)
			sum += i
		})
		env.Run()
	}
	if sum != 5050 || len(env.coFree) != 1 {
		t.Fatalf("sum %d on %d coroutines, want 5050 on 1", sum, len(env.coFree))
	}
	co := env.coFree[0]

	unwound := false
	victim := env.Go("victim", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(env.NewEvent())
	})
	env.Run()
	if victim.co != co {
		t.Fatal("victim did not take the parked coroutine")
	}
	env.resume(victim, resumeMsg{abort: true}) // what Shutdown does, minus stopping the pool
	if !unwound || len(env.live) != 0 || victim.co != nil || len(env.coFree) != 1 || env.coFree[0] != co {
		t.Fatalf("abort: unwound %v, %d live, %d parked", unwound, len(env.live), len(env.coFree))
	}

	var woke Time
	next := env.Go("next", func(p *Proc) {
		if next := p.Wait(env.Timeout(7, "v")); next != "v" {
			t.Errorf("wait returned %v on a reused coroutine", next)
		}
		woke = p.Now()
	})
	start := env.Now()
	env.Run()
	if woke != start+7 || !next.Done().Processed() || len(env.coFree) != 1 || env.coFree[0] != co {
		t.Fatalf("next body: woke at %d (want %d), done %v, %d parked", woke, start+7, next.Done().Processed(), len(env.coFree))
	}
	env.Shutdown()
}

// spawnTrace is the kernel's record of the scenario in
// TestSpawnAndDoneOrderMatchesRecording, dumped by the channel-based kernel
// this one replaced: spawn, start, resume and Done-firing order are part of
// the simulated behaviour and must not depend on how control is handed off.
const spawnTrace = `           0 sim    spawn        a=0x1 b=0x0 root
           0 sim    spawn        a=0x2 b=0x0 waiter
           0 sim    spawn        a=0x3 b=0x0 server
           0 sim    fire         a=0x1 b=0x0
           0 sim    resume       a=0x1 b=0x0 root
           0 sim    spawn        a=0x4 b=0x0 child0
           0 sim    spawn        a=0x5 b=0x0 child1
           0 sim    spawn        a=0x6 b=0x0 child2
           0 sim    fire         a=0x2 b=0x0
           0 sim    resume       a=0x2 b=0x0 waiter
           0 sim    fire         a=0x3 b=0x0
           0 sim    resume       a=0x3 b=0x0 server
           0 sim    fire         a=0x4 b=0x0
           0 sim    resume       a=0x4 b=0x0 child0
           0 sim    fire         a=0x5 b=0x0
           0 sim    resume       a=0x5 b=0x0 child1
           0 sim    fire         a=0x6 b=0x0
           0 sim    resume       a=0x6 b=0x0 child2
           0 sim    spawn        a=0x7 b=0x0 grandchild
           0 sim    fire         a=0x7 b=0x0
           0 sim    resume       a=0x1 b=0x0 root
           0 sim    fire         a=0x9 b=0x0
           0 sim    resume       a=0x7 b=0x0 grandchild
           0 sim    fire         a=0xb b=0x0
           3 sim    fire         a=0xa b=0x0
           3 sim    resume       a=0x6 b=0x0 child2
           3 sim    fire         a=0xc b=0x0
           5 sim    fire         a=0x8 b=0x0
           5 sim    resume       a=0x5 b=0x0 child1
           5 sim    fire         a=0xd b=0x0
           5 sim    resume       a=0x1 b=0x0 root
           5 sim    fire         a=0xe b=0x0
           5 sim    resume       a=0x2 b=0x0 waiter
           5 sim    fire         a=0xf b=0x0
           5 sim    spawn        a=0x8 b=0x0 never-started
           5 sim    abort        a=0x3 b=0x0 server
           5 sim    abort        a=0x8 b=0x0 never-started
`

func TestSpawnAndDoneOrderMatchesRecording(t *testing.T) {
	var dump strings.Builder
	tr := trace.New(trace.Options{Dump: &dump})
	env := NewEnv(3)
	env.SetTracer(tr)
	root := env.Go("root", func(p *Proc) {
		var kids []*Proc
		for i, d := range []Time{0, 5, 3} {
			kids = append(kids, env.Go(fmt.Sprintf("child%d", i), func(c *Proc) {
				if i == 2 {
					env.Go("grandchild", func(*Proc) {})
				}
				c.Sleep(d)
			}))
		}
		for _, k := range kids {
			p.Wait(k.Done())
		}
	})
	env.Go("waiter", func(p *Proc) { p.Wait(root.Done()) })
	env.Go("server", func(p *Proc) { p.Wait(env.NewEvent()) })
	env.Run()
	env.Go("never-started", func(*Proc) {})
	env.Shutdown()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Records without a detail string end in a space; the recording has
	// them trimmed.
	if got := strings.ReplaceAll(dump.String(), " \n", "\n"); got != spawnTrace {
		t.Fatalf("kernel trace differs from the recording:\n%s", got)
	}
}
