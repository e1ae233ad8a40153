package sim

import (
	"testing"
	"testing/quick"

	"bmstore/internal/trace"
)

func TestTimeoutAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var woke Time = -1
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	env.Run()
	if woke != 5*Microsecond {
		t.Fatalf("woke at %d, want %d", woke, 5*Microsecond)
	}
}

func TestZeroSleepDoesNotAdvance(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) {
		p.Sleep(0)
		if p.Now() != 0 {
			t.Errorf("zero sleep advanced clock to %d", p.Now())
		}
	})
	env.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	failed := false
	env.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				failed = true
				panic(errAborted) // unwind cleanly through the wrapper
			}
		}()
		p.Sleep(-1)
	})
	env.Run()
	if !failed {
		t.Fatal("negative sleep did not panic")
	}
}

func TestEventValuePropagates(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var got any
	env.Go("waiter", func(p *Proc) { got = p.Wait(ev) })
	env.Go("trigger", func(p *Proc) {
		p.Sleep(3)
		ev.Trigger("hello")
	})
	env.Run()
	if got != "hello" {
		t.Fatalf("got %v, want hello", got)
	}
}

func TestWaitOnProcessedEventReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	ev := env.Timeout(1, 42)
	var got any
	var at Time
	env.Go("late", func(p *Proc) {
		p.Sleep(10)
		got = p.Wait(ev)
		at = p.Now()
	})
	env.Run()
	if got != 42 || at != 10 {
		t.Fatalf("got %v at %d, want 42 at 10", got, at)
	}
}

func TestTriggerIsIdempotent(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	n := 0
	ev.AddCallback(func(any) { n++ })
	ev.Trigger(1)
	ev.Trigger(2)
	env.Run()
	if n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
	if ev.val != 1 {
		t.Fatalf("value %v, want first trigger's 1", ev.val)
	}
}

func TestDeterministicOrderingFIFOAtSameTime(t *testing.T) {
	run := func() []int {
		env := NewEnv(7)
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			env.Go("p", func(p *Proc) {
				p.Sleep(5)
				order = append(order, i)
			})
		}
		env.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != i {
			t.Fatalf("order %v not FIFO", a)
		}
		if a[i] != b[i] {
			t.Fatalf("non-deterministic ordering: %v vs %v", a, b)
		}
	}
}

func TestScheduleCallback(t *testing.T) {
	env := NewEnv(1)
	var at Time = -1
	env.Schedule(9, func() { at = env.Now() })
	env.Run()
	if at != 9 {
		t.Fatalf("callback at %d, want 9", at)
	}
}

// TestAfterMirrorsSleep: a positive delay is one scheduled event; a zero or
// negative one (a completion time already in the past) runs the continuation
// inline and schedules nothing, as Proc.Sleep(0) returns without yielding.
func TestAfterMirrorsSleep(t *testing.T) {
	env := NewEnv(1)
	var at []Time
	note := func() { at = append(at, env.Now()) }
	env.After(0, note)
	env.After(-5, note)
	if len(at) != 2 || env.pending() != 0 {
		t.Fatalf("After(<=0): ran %d of 2 inline with %d events queued", len(at), env.pending())
	}
	env.After(9, note)
	if len(at) != 2 || env.pending() != 1 {
		t.Fatalf("After(9): ran inline or queued %d events", env.pending())
	}
	env.Run()
	if len(at) != 3 || at[2] != 9 {
		t.Fatalf("After(9) fired at %v, want 9", at[2:])
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.Schedule(100, func() { fired = true })
	env.RunUntil(50)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if env.Now() != 50 {
		t.Fatalf("clock %d, want 50", env.Now())
	}
	env.RunUntil(100)
	if !fired {
		t.Fatal("event at limit did not fire on second run")
	}
}

func TestWaitAnyPicksEarliest(t *testing.T) {
	env := NewEnv(1)
	var winner any
	env.Go("p", func(p *Proc) {
		fast := p.Env().Timeout(5, "fast")
		slow := p.Env().Timeout(9, "slow")
		winner = p.WaitAny(slow, fast).val
		// After winning, the process must survive the slow event firing.
		p.Sleep(10)
	})
	env.Run()
	if winner != "fast" {
		t.Fatalf("winner %v, want fast", winner)
	}
}

func TestWaitTimeout(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var ok1, ok2 bool
	env.Go("t1", func(p *Proc) { _, ok1 = p.WaitTimeout(ev, 5) })
	env.Go("t2", func(p *Proc) {
		v, ok := p.WaitTimeout(env.Timeout(2, "x"), 5)
		ok2 = ok && v == "x"
	})
	env.Run()
	if ok1 {
		t.Fatal("timeout path reported success")
	}
	if !ok2 {
		t.Fatal("event-first path reported timeout")
	}
	env.Shutdown()
}

func TestQueueFIFO(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	var got []int
	env.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	env.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestQueueHandsItemDirectlyToWaiter(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env)
	var got string
	env.Go("consumer", func(p *Proc) { got = q.Get(p) })
	env.Go("producer", func(p *Proc) {
		p.Sleep(3)
		q.Put("item")
	})
	env.Run()
	if got != "item" {
		t.Fatalf("got %q", got)
	}
	if q.items.Len() != 0 {
		t.Fatal("item left buffered after direct handoff")
	}
}

// TestQueuePutBeforeGet: an item put while no getter waits is kept, and the
// next Get takes it without blocking.
func TestQueuePutBeforeGet(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	q.Put(1)
	var got int
	env.Go("consumer", func(p *Proc) { got = q.Get(p) })
	env.Run()
	if got != 1 || q.items.Len() != 0 {
		t.Fatalf("Get = %d with %d items left; want 1 and none", got, q.items.Len())
	}
}

// use holds one unit of r for d.
func use(r *Resource, p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Go("user", func(p *Proc) {
			use(r, p, 10)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			use(r, p, 10)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times %v, want %v", finish, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("resource left in use: %d", r.InUse())
	}
}

// TestAcquireTimeout walks a one-unit resource through every way a bounded
// wait can end: a free unit costs what Acquire costs, a unit released in time
// is granted FIFO, a waiter that gives up holds nothing and is stepped over
// by the next Release, and a unit passed on in the timer's own instant — the
// Release ran, the grant is still queued behind the timer — is kept.
func TestAcquireTimeout(t *testing.T) {
	events := func(acquire func(*Resource, *Proc)) uint64 {
		env := NewEnv(1)
		r := NewResource(env, 1)
		env.Go("free", func(p *Proc) { acquire(r, p) })
		env.Run()
		if r.InUse() != 1 {
			t.Fatalf("a free unit was not granted")
		}
		return env.Events()
	}
	if got, want := events(func(r *Resource, p *Proc) { r.AcquireTimeout(p, 100) }), events(func(r *Resource, p *Proc) { r.Acquire(p) }); got != want {
		t.Fatalf("a free grant under a timeout fired %d events, Acquire fires %d", got, want)
	}

	type end struct {
		ok bool
		at Time
	}
	env := NewEnv(1)
	r := NewResource(env, 1)
	r.TryAcquire()
	var ends []end
	wait := func(d Time) {
		env.Go("waiter", func(p *Proc) {
			ok := r.AcquireTimeout(p, d)
			ends = append(ends, end{ok, p.Now()})
			if ok {
				p.Sleep(10)
				r.Release()
			}
		})
	}
	// The holder's wake-up at 120 is queued ahead of the second waiter's timer.
	env.Go("holder", func(p *Proc) {
		p.Sleep(120)
		r.Release()
	})
	wait(50)  // gives up at 50
	wait(120) // stepped to past the one that gave up, in its timer's instant
	wait(200) // granted in time, when that one passes the unit on
	env.Run()
	want := []end{{false, 50}, {true, 120}, {true, 130}}
	if len(ends) != len(want) {
		t.Fatalf("waiters ended %+v, want %+v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("waiters ended %+v, want %+v", ends, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("%d units in use at the end", r.InUse())
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	r.Release()
}

// A resource under contention allocates nothing at steady state, for
// callback and process waiters alike: the waiter events, their callback
// slices and the FIFO's storage are all reused.
func TestContendedAcquireDoesNotAllocate(t *testing.T) {
	env := NewEnv(1)
	r := NewResource(env, 1)
	granted := 0
	cb := func(any) { granted++ }
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 9; i++ { // one immediate grant, eight queued
			r.AcquireCB(cb)
		}
		for i := 0; i < 9; i++ {
			r.Release()
			env.Run()
		}
	}); n != 0 {
		t.Errorf("contended AcquireCB: %v allocs per 9 grants, want 0", n)
	}
	if granted != 101*9 || r.InUse() != 0 {
		t.Fatalf("%d grants, %d units in use", granted, r.InUse())
	}

	for i := 0; i < 8; i++ {
		env.Go("user", func(p *Proc) {
			for {
				use(r, p, 10)
			}
		})
	}
	if n := testing.AllocsPerRun(100, func() { env.RunUntil(env.Now() + 1000) }); n != 0 {
		t.Errorf("contended Acquire: %v allocs per 100 grants, want 0", n)
	}
	env.Shutdown()
}

// transfer books n bytes on pc and sleeps until they are through.
func transfer(p *Proc, pc *Pacer, n int64) { p.Sleep(pc.Reserve(n) - p.Now()) }

func TestPacerRate(t *testing.T) {
	env := NewEnv(1)
	pc := NewPacer(env, 1e9) // 1 GB/s => 1 byte per ns
	var done Time
	env.Go("xfer", func(p *Proc) {
		transfer(p, pc, 4096)
		transfer(p, pc, 4096)
		done = p.Now()
	})
	env.Run()
	if done != 8192 {
		t.Fatalf("two 4K transfers at 1GB/s finished at %dns, want 8192", done)
	}
}

func TestPacerQueuesConcurrentTransfers(t *testing.T) {
	env := NewEnv(1)
	pc := NewPacer(env, 1e9)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Go("xfer", func(p *Proc) {
			transfer(p, pc, 1000)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{1000, 2000, 3000}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish %v, want %v", finish, want)
		}
	}
}

func TestRandStreamsIndependentAndDeterministic(t *testing.T) {
	a1 := NewEnv(42).Rand("ssd0").Int63()
	a2 := NewEnv(42).Rand("ssd0").Int63()
	b := NewEnv(42).Rand("ssd1").Int63()
	c := NewEnv(43).Rand("ssd0").Int63()
	if a1 != a2 {
		t.Fatal("same seed+name produced different streams")
	}
	if a1 == b {
		t.Fatal("different names produced identical streams")
	}
	if a1 == c {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProcDoneEvent(t *testing.T) {
	env := NewEnv(1)
	p1 := env.Go("worker", func(p *Proc) { p.Sleep(5) })
	var joinedAt Time = -1
	env.Go("joiner", func(p *Proc) {
		p.Wait(p1.Done())
		joinedAt = p.Now()
	})
	env.Run()
	if joinedAt != 5 {
		t.Fatalf("joined at %d, want 5", joinedAt)
	}
}

func TestShutdownUnblocksAll(t *testing.T) {
	env := NewEnv(1)
	for i := 0; i < 5; i++ {
		env.Go("server", func(p *Proc) {
			p.Wait(p.Env().NewEvent()) // never fires
		})
	}
	env.Run()
	if len(env.live) != 5 {
		t.Fatalf("blocked %d, want 5", len(env.live))
	}
	env.Shutdown()
	if len(env.live) != 0 {
		t.Fatalf("blocked after shutdown: %d", len(env.live))
	}
}

// Property: a pacer transferring k packets of arbitrary sizes finishes
// exactly at ceil-free sum/rate boundaries — total time equals the sum of
// per-packet durations, regardless of arrival pattern at saturation.
func TestPacerConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		env := NewEnv(1)
		pc := NewPacer(env, 1e9)
		var total int64
		var end Time
		env.Go("xfer", func(p *Proc) {
			for _, s := range sizes {
				n := int64(s) + 1
				total += n
				transfer(p, pc, n)
			}
			end = p.Now()
		})
		env.Run()
		return end == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-c resource and n unit-time jobs, makespan is
// ceil(n/c) — the resource neither over- nor under-admits.
func TestResourceMakespanProperty(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%40) + 1
		c := int(c8%8) + 1
		env := NewEnv(1)
		r := NewResource(env, c)
		for i := 0; i < n; i++ {
			env.Go("job", func(p *Proc) { use(r, p, 100) })
		}
		end := env.Run()
		want := Time((n + c - 1) / c * 100)
		return end == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownWithPendingEvents(t *testing.T) {
	env := NewEnv(1)
	fired := false
	// A callback far in the future plus a proc sleeping toward it: both are
	// still pending when Shutdown runs and must simply be dropped.
	env.Schedule(1e12, func() { fired = true })
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(1e12)
		fired = true
	})
	env.Go("waiter", func(p *Proc) {
		p.Wait(env.NewEvent()) // never fires
	})
	env.RunUntil(1000)
	env.Shutdown()
	if len(env.live) != 0 {
		t.Fatalf("blocked after shutdown: %d", len(env.live))
	}
	if fired {
		t.Fatal("pending work ran despite shutdown")
	}
	// Shutdown must be idempotent even with the queue still holding the
	// far-future timer.
	env.Shutdown()
}

func TestShutdownAbortOrderDeterministic(t *testing.T) {
	// Procs are aborted in spawn order regardless of map iteration: with a
	// tracer attached, two identical runs must produce identical digests
	// even when Shutdown reaps many blocked procs.
	digest := func() string {
		tr := trace.NewDigest()
		env := NewEnv(9)
		env.SetTracer(tr)
		for i := 0; i < 32; i++ {
			env.Go("blocked", func(p *Proc) { p.Wait(env.NewEvent()) })
		}
		env.Run()
		env.Shutdown()
		return tr.Digest()
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("shutdown order nondeterministic: %s vs %s", a, b)
	}
}
