package sim

import "testing"

// A queue that is put to and got from without ever draining reuses its ring:
// no slide off the backing array, no reallocation on the next append.
func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	for i := 0; i < 3; i++ {
		q.Put(i) // resident items: the queue never drains
	}
	next, want := 3, 0
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 5; i++ {
			q.Put(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if v := q.items.Pop(); v != want {
				t.Fatalf("got %d, want %d", v, want)
			}
			want++
		}
	}); n != 0 {
		t.Errorf("steady-state put/get: %v allocs per 5 items, want 0", n)
	}
	if q.items.Len() != 3 {
		t.Fatalf("%d items resident, want 3", q.items.Len())
	}
}

func TestShutdownIsIdempotent(t *testing.T) {
	env := NewEnv(1)
	env.Go("stuck", func(p *Proc) { p.Wait(env.NewEvent()) })
	env.Run()
	env.Shutdown()
	env.Shutdown() // second call must be a no-op
	if len(env.live) != 0 {
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
