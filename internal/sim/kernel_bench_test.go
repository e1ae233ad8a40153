package sim

import (
	"testing"

	"bmstore/internal/obs"
)

// BenchmarkSchedulerThroughput measures the raw per-event cost of the
// scheduler's hot loop: Schedule -> queue -> fire, with no processes
// involved. 64 concurrent callback chains keep the event queue deep enough
// that heap reorganisation cost shows up, the way it does under a real
// multi-device simulation. One benchmark op is one fired event.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const chains = 64
	env := NewEnv(1)
	fired := 0
	scheduled := 0
	var tick func()
	tick = func() {
		fired++
		if scheduled < b.N {
			scheduled++
			env.Schedule(100*Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && scheduled < b.N; i++ {
		scheduled++
		env.Schedule(Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	if fired != scheduled {
		b.Fatalf("fired %d of %d scheduled events", fired, scheduled)
	}
}

// BenchmarkSchedulerDeepThroughput is the scheduler's hot loop with 4096
// entries pending — the depth of a 128 KiB sequential run, and the shape of
// the repo benchmark's sim.sched_ns_per_event_deep probe — and delays of
// 0.1 to 164 µs, so four pushes in five land in the timing wheel and the
// fifth in the far heap. BenchmarkSchedulerThroughput's 64 entries 100 ns
// apart cannot see what depth costs. An untimed warm-up takes the wheel's
// arena and the heap to their high-water marks, so the timed region shows
// the steady state: 0 allocs/op, pinned by make bench-gate.
func BenchmarkSchedulerDeepThroughput(b *testing.B) {
	const pending = 4096
	env := NewEnv(1)
	fired, left := 0, 0
	var tick func()
	tick = func() {
		fired++
		if left > 0 {
			left--
			env.Schedule(100+Time(left%pending)*40, tick)
		}
	}
	run := func(n int) {
		fired, left = 0, n
		for i := 0; i < pending && left > 0; i++ {
			left--
			env.Schedule(Time(i), tick)
		}
		env.Run()
	}
	run(4 * pending)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d of %d scheduled events", fired, b.N)
	}
}

// BenchmarkSchedulerMetricsOnThroughput is BenchmarkSchedulerThroughput with
// a metrics registry attached: the kernel's counters are plain scalar
// increments cached at SetMetrics time, so enabling observability must keep
// the fire loop allocation-free. Guarded by the same bench-gate baseline.
func BenchmarkSchedulerMetricsOnThroughput(b *testing.B) {
	const chains = 64
	env := NewEnv(1)
	env.SetMetrics(obs.New(obs.Options{}))
	fired := 0
	scheduled := 0
	var tick func()
	tick = func() {
		fired++
		if scheduled < b.N {
			scheduled++
			env.Schedule(100*Nanosecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && scheduled < b.N; i++ {
		scheduled++
		env.Schedule(Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	if fired != scheduled {
		b.Fatalf("fired %d of %d scheduled events", fired, scheduled)
	}
	if got := env.Metrics().Component("sim").Counter("events_fired").Value(); got != uint64(fired) {
		b.Fatalf("events_fired counter %d, fired %d", got, fired)
	}
}

// BenchmarkProcessSleepThroughput measures the per-event cost when every
// event resumes a blocked process: the coroutine switch into the process and
// back plus the timeout-event machinery behind Proc.Sleep. One op is one
// completed sleep. A warm-up round creates the coroutines and primes the
// free lists, so the timed region allocates only the 16 Procs.
func BenchmarkProcessSleepThroughput(b *testing.B) {
	const procs = 16
	env := NewEnv(1)
	round := func(total int) {
		per := total / procs
		extra := total % procs
		for i := 0; i < procs; i++ {
			n := per
			if i < extra {
				n++
			}
			env.Go("sleeper", func(p *Proc) {
				for j := 0; j < n; j++ {
					p.Sleep(100 * Nanosecond)
				}
			})
		}
		env.Run()
	}
	round(procs)
	b.ReportAllocs()
	b.ResetTimer()
	round(b.N)
	b.StopTimer()
	env.Shutdown()
}

// BenchmarkProcessSpawn measures a short-lived process end to end — Go, one
// Sleep, return — 512 at a time, the way fio starts a worker per queue slot
// and a bridged device one per media operation. One op is one process. A
// warm-up batch fills the coroutine pool, so the timed region shows the
// steady state: the Proc and its Done event, 2 allocs/op (pinned by make
// bench-gate), and no goroutine created.
func BenchmarkProcessSpawn(b *testing.B) {
	const batch = 512
	env := NewEnv(1)
	body := func(p *Proc) { p.Sleep(100 * Nanosecond) }
	spawn := func(n int) {
		for i := 0; i < n; i++ {
			env.Go("short", body)
		}
		env.Run()
	}
	spawn(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= batch {
		spawn(min(left, batch))
	}
	b.StopTimer()
	env.Shutdown()
}
