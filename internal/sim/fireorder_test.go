package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stamp is the (time, sequence) key the kernel gives a queue entry.
type stamp struct {
	at  Time
	seq uint64
}

// spreadDelay maps two bytes to a delay that exercises one feature of the
// two-tier queue, given the clock and the last future instant a push aimed
// at: the current instant, the same wheel slot, a few slots on, the last
// slot of the wheel / the first one past it / the one after, the far heap,
// a burst on one future instant, a time just before it (an insert ahead of
// what is already in that slot), and a plain 0–255 µs spread.
func spreadDelay(now, lastAt Time, kind, arg byte) Time {
	switch kind % 8 {
	case 1:
		return 1 + Time(arg)%(1<<wheelShift-1)
	case 2:
		return (Time(arg)+1)<<wheelShift + Time(arg)%7
	case 3:
		slot := now>>wheelShift + wheelSlots - 1 + Time(arg%3)
		return slot<<wheelShift + Time(arg>>2)%(1<<wheelShift) - now
	case 4:
		return Millisecond + Time(arg)<<12
	case 5:
		if lastAt >= now {
			return lastAt - now
		}
	case 6:
		if d := lastAt - now - 1 - Time(arg%64); d >= 0 {
			return d
		}
	case 7:
		return Time(arg) * Microsecond
	}
	return 0
}

// Property: whatever mix of delays callbacks and processes schedule — for
// the current instant, inside the wheel's horizon, on its edge, far beyond
// it, in bursts on one instant — entries fire in (time, seq) order: the two
// tiers are invisible. Each entry records the seq the kernel stamped on it;
// the fire log must be strictly increasing in (at, seq) and complete.
func TestFireOrderIsTimeThenSeq(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv(seed)
		var lastAt Time
		near, far := 0, 0
		delay := func() Time {
			d := Time(0)
			if rng.Intn(100) >= 35 {
				d = spreadDelay(env.now, lastAt, byte(1+rng.Intn(7)), byte(rng.Intn(256)))
			}
			if d > 0 {
				lastAt = env.now + d
			}
			if wheelCovers(env.now, env.now+d) {
				near++
			} else {
				far++
			}
			return d
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
			t.Fatalf("seed %d: only %d of %d fires shared an instant", seed, zero, len(fired))
		}
		if laps := env.now >> wheelShift / wheelSlots; near < pushed/2 || far < pushed/20 || laps < 3 {
			t.Fatalf("seed %d: %d near and %d far pushes over %d laps of the wheel; a tier or the wrap went unexercised", seed, near, far, laps)
		}
	}
}

// driveFireOrder interprets data as a program of pushes — Schedule,
// TriggerDelayed, a process that sleeps — made from outside the run, from
// callbacks and from process bodies, interleaved with RunUntil slices that
// move the clock whether or not anything is due, and checks the fire log
// against the reference: the stamped (at, seq) pairs, sorted. Afterwards the
// wheel must be empty and every arena node zeroed.
func driveFireOrder(t *testing.T, data []byte) *Env {
	env := NewEnv(1)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var lastAt Time
	delay := func() Time {
		d := spreadDelay(env.now, lastAt, next(), next())
		if d > 0 {
			lastAt = env.now + d
		}
		return d
	}
	var pushed, fired []stamp
	// expect records the entry the next push will create, due after d.
	expect := func(d Time) stamp {
		s := stamp{env.now + d, env.seq + 1}
		pushed = append(pushed, s)
		return s
	}
	var push func()
	fire := func(s stamp) {
		if env.now != s.at {
			t.Fatalf("entry (%d, %d) fired with the clock at %d", s.at, s.seq, env.now)
		}
		fired = append(fired, s)
		for k := next() % 3; k > 0; k-- {
			push()
		}
	}
	push = func() {
		op, d := next(), delay()
		switch op % 3 {
		case 0:
			s := expect(d)
			env.Schedule(d, func() { fire(s) })
		case 1:
			s := expect(d)
			ev := env.NewEvent()
			ev.AddCallback(func(any) { fire(s) })
			ev.TriggerDelayed(d, nil)
		case 2:
			start := expect(0)
			env.Go("sleeper", func(p *Proc) {
				fire(start)
				if d > 0 {
					s := expect(d)
					p.Sleep(d)
					fire(s)
				}
				done := expect(0)
				p.Done().AddCallback(func(any) { fire(done) })
			})
		}
	}
	for len(data) > 0 {
		if next()%4 == 0 {
			to := env.now + delay()
			if now := env.RunUntil(to); now != to {
				t.Fatalf("RunUntil(%d) left the clock at %d", to, now)
			}
		} else {
			push()
		}
	}
	env.Run()
	env.Shutdown()

	sort.Slice(pushed, func(i, j int) bool {
		a, b := pushed[i], pushed[j]
		return a.at < b.at || a.at == b.at && a.seq < b.seq
	})
	if len(fired) != len(pushed) {
		t.Fatalf("%d of %d entries fired", len(fired), len(pushed))
	}
	for i := range pushed {
		if fired[i] != pushed[i] {
			t.Fatalf("fire %d was (%d, %d), the reference order has (%d, %d)",
				i, fired[i].at, fired[i].seq, pushed[i].at, pushed[i].seq)
		}
	}
	checkWheelEmpty(t, &env.near)
	if env.pending() != 0 {
		t.Fatalf("%d entries pending after Run", env.pending())
	}
	return env
}

// checkWheelEmpty verifies what an empty wheel must look like: no bucket
// linked, no bit set, and no arena node still holding a callback or event.
func checkWheelEmpty(t *testing.T, w *wheel) {
	t.Helper()
	if w.n != 0 || w.occupied != [wheelSlots / 64]uint64{} || w.head != [wheelSlots]int32{} || w.tail != [wheelSlots]int32{} {
		t.Fatalf("drained wheel still links entries: n=%d occupied=%x", w.n, w.occupied)
	}
	free := 0
	for i := w.free; i != 0; i = w.nodes[i].next {
		free++
	}
	if len(w.nodes) > 0 && free != len(w.nodes)-1 {
		t.Fatalf("free list holds %d of %d arena nodes", free, len(w.nodes)-1)
	}
	for i, n := range w.nodes {
		if it := n.it; it.fn != nil || it.ev != nil || it.at != 0 || it.seq != 0 {
			t.Fatalf("parked arena node %d retains %+v", i, it)
		}
	}
}

// Differential test: random programs through driveFireOrder. The programs
// must between them use both tiers and take the clock several laps round
// the wheel, or the test is not testing the wrap.
func TestFireOrderMatchesSortedReference(t *testing.T) {
	var laps Time
	var events uint64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(3000))
		rng.Read(data)
		env := driveFireOrder(t, data)
		laps += env.now >> wheelShift / wheelSlots
		events += env.Events()
	}
	if laps < 100 || events < 10000 {
		t.Fatalf("40 programs fired %d events over %d laps of the wheel", events, laps)
	}
}

// FuzzFireOrder hands the fuzzer the same driver; testdata/fuzz holds the
// seed corpus, which `go test` replays as a regression test.
func FuzzFireOrder(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("longer programs only repeat shorter ones")
		}
		driveFireOrder(t, data)
	})
}

// An entry due earlier than everything already in its slot goes to the
// front of the bucket, one due between two of them goes between, and equal
// times keep push order.
func TestWheelInsertsAheadOfBucketHead(t *testing.T) {
	env := NewEnv(1)
	var order []int
	for i, d := range []Time{100, 40, 70, 40, 100, 10} { // all in slot 0
		env.Schedule(d, func() { order = append(order, i) })
	}
	if env.near.n != 6 || len(env.far.s) != 0 || env.near.occupied[0] != 1 {
		t.Fatalf("six sub-slot delays: %d near, %d far, occupancy %b", env.near.n, len(env.far.s), env.near.occupied[0])
	}
	env.Run()
	if want := []int{5, 1, 3, 2, 0, 4}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	checkWheelEmpty(t, &env.near)
}

// A slot crowded with distinct times keeps what it can link within a
// bounded walk and hands the rest to the heap; the fire order does not
// notice.
func TestCrowdedSlotSpillsToTheHeap(t *testing.T) {
	env := NewEnv(1)
	rng := rand.New(rand.NewSource(7))
	var order []Time
	for _, d := range rng.Perm(1<<wheelShift - 1) { // one entry per instant of slot 0 but the first
		d := Time(d + 1)
		env.Schedule(d, func() { order = append(order, d) })
	}
	if env.near.n <= wheelWalk || len(env.far.s) == 0 || env.pending() != 1<<wheelShift-1 {
		t.Fatalf("crowded slot: %d near, %d far of %d pushes", env.near.n, len(env.far.s), 1<<wheelShift-1)
	}
	env.Run()
	if len(order) != 1<<wheelShift-1 || !slices.IsSorted(order) {
		t.Fatalf("%d entries fired, in the order %v", len(order), order)
	}
	checkWheelEmpty(t, &env.near)
}

// The tier is chosen by slot distance, not by delay: the last slot of the
// wheel is near, the next one far, wherever in its own slot the clock
// stands. A far entry the clock has since come close to still fires in
// order with near ones pushed later.
func TestHorizonEdgeAndLateFarEntries(t *testing.T) {
	env := NewEnv(1)
	env.RunUntil(5<<wheelShift + 77) // mid-slot
	var order []string
	edge := Time(5+wheelSlots) << wheelShift // first instant past the horizon
	env.Schedule(edge-1-env.now, func() { order = append(order, "last-near") })
	env.Schedule(edge-env.now, func() { order = append(order, "first-far") })
	env.Schedule(edge+300-env.now, func() { order = append(order, "far+300") })
	if env.near.n != 1 || len(env.far.s) != 2 {
		t.Fatalf("edge pushes: %d near, %d far, want 1 and 2", env.near.n, len(env.far.s))
	}
	env.RunUntil(edge - 1000) // the clock moves without popping; all three are now close
	if env.pending() != 3 {
		t.Fatalf("%d pending after an idle slice, want 3", env.pending())
	}
	env.Schedule(edge-env.now, func() { order = append(order, "near-same-instant-as-far") })
	env.Schedule(edge+200-env.now, func() { order = append(order, "near+200") })
	env.Run()
	want := []string{"last-near", "first-far", "near-same-instant-as-far", "near+200", "far+300"}
	if !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

// RunUntil(t) with t already in the past must not fire entries queued for
// the current instant.
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

// RunUntilEvent may stop with same-instant entries still queued; they count
// as pending, survive, and fire first — before later ones — when the run
// resumes.
func TestRunUntilEventStopsWithLaneNonEmpty(t *testing.T) {
	env := NewEnv(1)
	target := env.NewEvent()
	var order []string
	env.Schedule(10, func() {
		target.Trigger(nil)
		env.Schedule(0, func() { order = append(order, "same-instant") })
		env.Schedule(5, func() { order = append(order, "later") })
	})
	env.Schedule(10, func() { order = append(order, "earlier-push-same-instant") })
	env.RunUntilEvent(target)
	if !target.Processed() || env.Now() != 10 || len(order) != 1 || order[0] != "earlier-push-same-instant" {
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
