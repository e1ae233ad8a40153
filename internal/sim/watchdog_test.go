package sim

import (
	"strings"
	"testing"

	"bmstore/internal/trace"
)

func TestRunUntilEventWatchedCompletes(t *testing.T) {
	env := NewEnv(1)
	main := env.Go("main", func(p *Proc) { p.Sleep(5 * Millisecond) })
	now, diag := env.RunUntilEventWatched(main.Done(), Second)
	if diag != nil {
		t.Fatalf("unexpected diagnosis: %v", diag)
	}
	if now != 5*Millisecond {
		t.Fatalf("now = %d, want 5ms", now)
	}
}

func TestRunUntilEventWatchedDeadlock(t *testing.T) {
	env := NewEnv(1)
	// Two processes in a classic cyclic wait: each blocks on an event only
	// the other would trigger.
	evA, evB := env.NewEvent(), env.NewEvent()
	env.Go("alice", func(p *Proc) {
		p.Wait(evA)
		evB.Trigger(nil)
	})
	main := env.Go("bob", func(p *Proc) {
		p.Wait(evB)
		evA.Trigger(nil)
	})
	_, diag := env.RunUntilEventWatched(main.Done(), Second)
	if diag == nil {
		t.Fatal("deadlocked run produced no diagnosis")
	}
	if diag.HorizonHit {
		t.Fatalf("deadlock misreported as horizon: %v", diag)
	}
	if diag.Pending != 0 {
		t.Fatalf("deadlock with %d pending events: %v", diag.Pending, diag)
	}
	if len(diag.Blocked) != 2 {
		t.Fatalf("blocked procs = %v, want both", diag.Blocked)
	}
	s := diag.String()
	if !strings.Contains(s, "deadlock") || !strings.Contains(s, "alice") || !strings.Contains(s, "bob") {
		t.Fatalf("diagnosis string %q should name the kind and the blocked processes", s)
	}
	env.Shutdown()
}

func TestRunUntilEventWatchedHorizon(t *testing.T) {
	env := NewEnv(1)
	// A livelocked server: always has a next event, never finishes.
	env.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
		}
	})
	main := env.Go("main", func(p *Proc) { p.Sleep(10 * Second) })
	_, diag := env.RunUntilEventWatched(main.Done(), 20*Millisecond)
	if diag == nil {
		t.Fatal("over-horizon run produced no diagnosis")
	}
	if !diag.HorizonHit {
		t.Fatalf("horizon stop misreported as deadlock: %v", diag)
	}
	if diag.Pending == 0 {
		t.Fatalf("horizon stop should leave events pending: %v", diag)
	}
	if !strings.Contains(diag.String(), "horizon") {
		t.Fatalf("diagnosis string %q should say horizon", diag)
	}
	env.Shutdown()
}

// The diagnosis counts what is queued in both tiers of the event queue: an
// entry inside the wheel's horizon and one far beyond it are two pending
// events, and a lone far entry is a horizon hit, not a deadlock.
func TestWatchedDiagnosisCountsBothTiers(t *testing.T) {
	env := NewEnv(1)
	never := env.NewEvent()
	env.Schedule(50*Microsecond, func() {})
	env.Schedule(5*Millisecond, func() {})
	if env.near.n != 1 || len(env.far.s) != 1 {
		t.Fatalf("%d near and %d far entries, want one of each", env.near.n, len(env.far.s))
	}
	now, diag := env.RunUntilEventWatched(never, 10*Microsecond)
	if diag == nil || !diag.HorizonHit || diag.Pending != 2 || now != 0 {
		t.Fatalf("at %d: %v, want a horizon hit at 0 with 2 pending", now, diag)
	}
	now, diag = env.RunUntilEventWatched(never, Millisecond)
	if diag == nil || !diag.HorizonHit || diag.Pending != 1 || now != 50*Microsecond {
		t.Fatalf("at %d: %v, want a horizon hit at 50us with the far entry pending", now, diag)
	}
	now, diag = env.RunUntilEventWatched(never, Second)
	if diag == nil || diag.HorizonHit || diag.Pending != 0 || now != 5*Millisecond {
		t.Fatalf("at %d: %v, want a deadlock at 5ms with nothing pending", now, diag)
	}
}

func TestWatchedDiagnosisIsDigestStable(t *testing.T) {
	run := func() string {
		env := NewEnv(9)
		tr := trace.NewDigest()
		env.SetTracer(tr)
		env.Go("stuck", func(p *Proc) { p.Wait(env.NewEvent()) })
		main := env.Go("main", func(p *Proc) { p.Wait(env.NewEvent()) })
		_, diag := env.RunUntilEventWatched(main.Done(), Second)
		if diag == nil {
			t.Fatal("expected a diagnosis")
		}
		env.Shutdown()
		return tr.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("watchdog broke determinism: %s vs %s", a, b)
	}
}
