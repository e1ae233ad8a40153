package sim

import (
	"math/rand"
	"testing"
)

// Property: whatever mix of zero and positive delays callbacks and processes
// schedule, entries fire in (time, seq) order — the zero-delay lane is
// invisible. Each entry records the seq the kernel stamped on it; the fire
// log must be strictly increasing in (at, seq) and complete.
func TestFireOrderIsTimeThenSeq(t *testing.T) {
	type stamp struct {
		at  Time
		seq uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv(seed)
		delay := func() Time {
			if rng.Intn(100) < 35 {
				return 0
			}
			return Time(rng.Intn(4) + 1) // small, so instants collide
		}
		var fired []stamp
		pushed := 0
		var schedule func()
		schedule = func() {
			d := delay()
			pushed++
			s := stamp{env.now + d, env.seq + 1}
			env.Schedule(d, func() {
				fired = append(fired, s)
				for k := rng.Intn(3); k > 0 && pushed < 4000; k-- {
					schedule()
				}
			})
		}
		for i := 0; i < 8; i++ {
			schedule()
			env.Go("proc", func(p *Proc) {
				for pushed < 4000 {
					d := delay()
					pushed++
					ev := env.NewEvent()
					ev.TriggerDelayed(d, nil)
					s := stamp{env.now + d, env.seq}
					p.Wait(ev)
					fired = append(fired, s)
					if rng.Intn(4) == 0 {
						schedule()
					}
				}
			})
		}
		env.Run()
		if len(fired) != pushed {
			t.Fatalf("seed %d: %d of %d entries fired", seed, len(fired), pushed)
		}
		zero := 0
		for i, s := range fired {
			if i > 0 {
				prev := fired[i-1]
				if s.at < prev.at || s.at == prev.at && s.seq <= prev.seq {
					t.Fatalf("seed %d: (%d, %d) fired after (%d, %d)", seed, s.at, s.seq, prev.at, prev.seq)
				}
				if s.at == prev.at {
					zero++
				}
			}
		}
		if zero < len(fired)/4 {
			t.Fatalf("seed %d: only %d of %d fires shared an instant; the lane went unexercised", seed, zero, len(fired))
		}
	}
}

// RunUntil(t) with t already in the past must not fire entries queued for
// the current instant, in the lane or out of it.
func TestRunUntilPastLeavesLaneAlone(t *testing.T) {
	env := NewEnv(1)
	env.RunUntil(100)
	fired := 0
	env.Schedule(0, func() { fired++ })
	env.NewEvent().Trigger(nil)
	if now := env.RunUntil(50); now != 100 || fired != 0 {
		t.Fatalf("RunUntil(50) at t=100: now %d, %d fired", now, fired)
	}
	if now := env.RunUntil(100); now != 100 || fired != 1 {
		t.Fatalf("RunUntil(100): now %d, %d fired", now, fired)
	}
}

// RunUntilEvent may stop with same-instant entries still in the lane; they
// count as pending, survive, and fire first — before later ones — when the
// run resumes.
func TestRunUntilEventStopsWithLaneNonEmpty(t *testing.T) {
	env := NewEnv(1)
	target := env.NewEvent()
	var order []string
	env.Schedule(10, func() {
		target.Trigger(nil)
		env.Schedule(0, func() { order = append(order, "same-instant") })
		env.Schedule(5, func() { order = append(order, "later") })
	})
	env.Schedule(10, func() { order = append(order, "heap-same-instant") })
	env.RunUntilEvent(target)
	if !target.Processed() || env.Now() != 10 || len(order) != 1 || order[0] != "heap-same-instant" {
		t.Fatalf("stopped at %d with %v fired, target processed %v", env.Now(), order, target.Processed())
	}
	// A watched run whose horizon already passed reports what is queued.
	_, diag := env.RunUntilEventWatched(env.NewEvent(), 9)
	if diag == nil || !diag.HorizonHit || diag.Pending != 2 {
		t.Fatalf("diagnosis %v, want a horizon hit with 2 pending", diag)
	}
	if now := env.RunUntil(12); now != 12 || len(order) != 2 || order[1] != "same-instant" {
		t.Fatalf("RunUntil(12): now %d, fired %v", now, order)
	}
	env.Run()
	if len(order) != 3 || order[2] != "later" || env.Now() != 15 {
		t.Fatalf("resumed run fired %v, ended at %d", order, env.Now())
	}
}
