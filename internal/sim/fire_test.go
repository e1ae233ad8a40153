package sim

import (
	"slices"
	"testing"
)

// TestFireRunsCallbacksThenWaitersInsideTheCall: Fire does what the queue
// would have done for a triggered event — callbacks in attach order, then
// waiters in wait order, each run until it blocks again — but inside the
// call and without a queue entry.
func TestFireRunsCallbacksThenWaitersInsideTheCall(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var log []string
	ev.AddCallback(func(v any) { log = append(log, "cb1:"+v.(string)) })
	ev.AddCallback(func(any) { log = append(log, "cb2") })
	for _, name := range []string{"w1", "w2", "w3"} {
		env.Go(name, func(p *Proc) {
			log = append(log, name+":"+p.Wait(ev).(string))
			p.Sleep(10)
			log = append(log, name+" slept")
		})
	}
	env.Run() // all three now wait
	events := env.Events()
	env.Schedule(5, func() {
		ev.Fire("v")
		log = append(log, "fire returned")
	})
	env.RunUntil(5)
	want := []string{"cb1:v", "cb2", "w1:v", "w2:v", "w3:v", "fire returned"}
	if !slices.Equal(log, want) {
		t.Fatalf("at the firing instant: %v, want %v", log, want)
	}
	if got := env.Events() - events; got != 1 {
		t.Fatalf("%d events fired, want 1: the Schedule entry, and none for the wake-ups", got)
	}
	if !ev.Processed() || ev.val != "v" {
		t.Fatalf("event processed=%v value=%v after Fire", ev.Processed(), ev.val)
	}
	env.Run()
	if env.Now() != 15 || len(log) != 9 {
		t.Fatalf("clock %d, log %v: the woken processes must finish their sleeps at 15", env.Now(), log)
	}
	// A late waiter and a late callback see a processed event.
	env.Go("late", func(p *Proc) { log = append(log, "late:"+p.Wait(ev).(string)) })
	env.Run()
	ev.AddCallback(func(v any) { log = append(log, "latecb:"+v.(string)) })
	if got := log[len(log)-2:]; !slices.Equal(got, []string{"late:v", "latecb:v"}) {
		t.Fatalf("after the fire: %v", got)
	}
}

// TestFireIsANoOpOnATriggeredFiredOrAbortedEvent mirrors
// TestTriggerIsIdempotent for each state an event can already be in.
func TestFireIsANoOpOnATriggeredFiredOrAbortedEvent(t *testing.T) {
	env := NewEnv(1)
	n := 0
	count := func(any) { n++ }

	fired := env.NewEvent()
	fired.AddCallback(count)
	fired.Fire(1)
	fired.Fire(2)
	if n != 1 || fired.val != 1 {
		t.Fatalf("double Fire: callback ran %d times with value %v, want once with 1", n, fired.val)
	}

	pending := env.NewEvent()
	pending.AddCallback(count)
	pending.TriggerDelayed(7, "queued")
	pending.Fire("in place")
	if n != 1 || pending.Processed() {
		t.Fatal("Fire ran an event that was already queued to fire later")
	}
	env.Run()
	if n != 2 || pending.val != "queued" || env.Now() != 7 {
		t.Fatalf("queued event: callbacks %d, value %v, clock %d; want its own firing at 7", n, pending.val, env.Now())
	}

	aborted := env.NewEvent()
	aborted.AddCallback(count)
	aborted.Abort()
	aborted.Fire(nil)
	if n != 2 || aborted.Processed() {
		t.Fatal("Fire ran an aborted event")
	}
}

// TestFireRecyclesPooledEvent: a pooled event fired in place goes back to
// the free list empty, exactly as one the queue fired.
func TestFireRecyclesPooledEvent(t *testing.T) {
	env := NewEnv(1)
	ev := env.PooledEvent()
	woke := false
	env.Go("w", func(p *Proc) { p.Wait(ev); woke = true })
	env.Run()
	ev.AddCallback(func(any) {})
	ev.Fire(nil)
	if !woke {
		t.Fatal("waiter did not resume")
	}
	if n := len(env.evFree); n == 0 || env.evFree[n-1] != ev {
		t.Fatal("fired pooled event is not on top of the free list")
	}
	if ev.processed || ev.val != nil || len(ev.waiters) != 0 || len(ev.callbacks) != 0 || !ev.pooled {
		t.Fatalf("recycled event not reset: %+v", ev)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev := env.PooledEvent()
		ev.AddCallback(func(any) {})
		ev.Fire(nil)
	})
	if allocs != 0 {
		t.Fatalf("pooled Fire cycle allocates %.1f times, want 0", allocs)
	}
}

// TestFireWakesWaitTimeoutAndWaitAnyWinners: a process resumed in place
// leaves its race exactly as one resumed from the queue does — the timer of
// a WaitTimeout is aborted and the loser of a WaitAny no longer knows the
// process, so neither can cut a later sleep short.
func TestFireWakesWaitTimeoutAndWaitAnyWinners(t *testing.T) {
	env := NewEnv(1)
	ev, other, loser := env.NewEvent(), env.NewEvent(), env.NewEvent()
	var gotVal any
	var gotOK bool
	var timeoutWoke, anyWoke Time
	env.Go("timeout", func(p *Proc) {
		gotVal, gotOK = p.WaitTimeout(ev, 10)
		p.Sleep(20) // outlives the aborted timer at 10
		timeoutWoke = p.Now()
	})
	env.Go("any", func(p *Proc) {
		if won := p.WaitAny(loser, other); won != other {
			t.Errorf("WaitAny returned the wrong event")
		}
		p.Sleep(20) // outlives the loser's firing at 3
		anyWoke = p.Now()
	})
	env.Schedule(2, func() {
		ev.Fire("cqe")
		other.Fire(nil)
	})
	env.Schedule(3, func() { loser.Fire(nil) })
	env.Run()
	if !gotOK || gotVal != "cqe" {
		t.Fatalf("WaitTimeout returned (%v, %v), want the fired value", gotVal, gotOK)
	}
	if timeoutWoke != 22 || anyWoke != 22 {
		t.Fatalf("sleeps ended at %d and %d, want 22: a stale timer or loser event resumed a process that had moved on", timeoutWoke, anyWoke)
	}
}
