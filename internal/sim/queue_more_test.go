package sim

import "testing"

func TestQueueGetEventImmediate(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 0)
	q.TryPut(42)
	ev := q.GetEvent()
	if !ev.Processed() && !ev.Triggered() {
		t.Fatal("event on non-empty queue not triggered")
	}
	var got any
	env.Go("w", func(p *Proc) { got = p.Wait(ev) })
	env.Run()
	if got != 42 {
		t.Fatalf("got %v", got)
	}
	if q.Len() != 0 {
		t.Fatal("item not consumed")
	}
}

func TestQueueGetEventDeferred(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env, 0)
	ev := q.GetEvent()
	var got any
	env.Go("w", func(p *Proc) { got = p.Wait(ev) })
	env.Go("producer", func(p *Proc) {
		p.Sleep(5)
		q.Put(p, "late")
	})
	env.Run()
	if got != "late" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueSelectAcrossTwoQueues(t *testing.T) {
	env := NewEnv(1)
	a := NewQueue[int](env, 0)
	b := NewQueue[int](env, 0)
	var winner any
	env.Go("selector", func(p *Proc) {
		ea, eb := a.GetEvent(), b.GetEvent()
		won := p.WaitAny(ea, eb)
		winner = won.Value()
	})
	env.Go("feeder", func(p *Proc) {
		p.Sleep(3)
		b.Put(p, 7)
	})
	env.Run()
	if winner != 7 {
		t.Fatalf("winner %v", winner)
	}
	env.Shutdown()
}

// A queue that is put to and got from without ever draining reuses its ring:
// no slide off the backing array, no reallocation on the next append.
func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, 0)
	for i := 0; i < 3; i++ {
		q.TryPut(i) // resident items: the queue never drains
	}
	next, want := 3, 0
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 5; i++ {
			q.TryPut(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if v, ok := q.TryGet(); !ok || v != want {
				t.Fatalf("got %d (%v), want %d", v, ok, want)
			}
			want++
		}
	}); n != 0 {
		t.Errorf("steady-state put/get: %v allocs per 5 items, want 0", n)
	}
	if q.Len() != 3 {
		t.Fatalf("%d items resident, want 3", q.Len())
	}
}

func TestShutdownIsIdempotent(t *testing.T) {
	env := NewEnv(1)
	env.Go("stuck", func(p *Proc) { p.Wait(env.NewEvent()) })
	env.Run()
	env.Shutdown()
	env.Shutdown() // second call must be a no-op
	if env.Blocked() != 0 {
		t.Fatal("still blocked")
	}
}

func TestRunUntilEventStopsExactly(t *testing.T) {
	env := NewEnv(1)
	var after bool
	target := env.Timeout(10, nil)
	env.Schedule(20, func() { after = true })
	env.RunUntilEvent(target)
	if after {
		t.Fatal("event beyond target processed")
	}
	if env.Now() != 10 {
		t.Fatalf("clock %d", env.Now())
	}
	env.Run()
	if !after {
		t.Fatal("remaining event lost")
	}
}
