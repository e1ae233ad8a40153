// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel in the style of SimPy. The entire BM-Store reproduction
// runs on this kernel: hardware latencies and bandwidths are modelled in
// virtual time, so microsecond-scale device behaviour can be reproduced
// faithfully regardless of host speed.
//
// Concurrency model: a simulation process is a runtime coroutine (iter.Pull)
// that the scheduler switches into and that switches straight back when the
// process blocks or returns. Exactly one of them — the scheduler or a single
// process — runs at any moment and the hand-off is a direct switch that never
// passes through the Go scheduler, so simulation state never needs locking,
// a run costs the same at any GOMAXPROCS, and event ordering is fully
// deterministic: events fire in (time, sequence) order. The event queue that
// keeps that order is a timing wheel for entries due within ~131 µs and a
// 4-ary heap for the rest (wheel.go, eventQueue).
//
// An Env is strictly single-threaded; parallelism in this codebase lives
// *between* environments, never inside one. Independent rigs each own an Env
// and may run on separate OS threads concurrently (see
// internal/experiments's worker pool), which is why the kernel holds no
// package-level mutable state.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"bmstore/internal/fault"
	"bmstore/internal/obs"
	"bmstore/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// Convenient duration units for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, start processes with Go, and drive it with Run or
// RunUntil. An Env must not be shared between operating-system threads other
// than through the process mechanism.
type Env struct {
	now Time
	// The event queue is two tiers chosen by how far ahead an entry is due:
	// near holds everything inside the wheel's horizon, far the rest. See
	// enqueue.
	near wheel
	far  eventQueue
	seq  uint64

	live map[*Proc]struct{}
	// coFree is the pool of parked coroutines: a process that returns leaves
	// its coroutine here and the next process to start takes it over, so at
	// steady state starting a process creates no goroutine. Shutdown stops
	// the parked ones.
	coFree []*coro

	seed   int64
	tracer *trace.Tracer
	faults *fault.Injector

	// n holds the kernel's own counts, kept with or without a registry: the
	// host driver reads n.events for its events-per-I/O, and the registry
	// reads all three at export as the "sim" counters events_fired,
	// proc_resumes and procs_spawned. They live apart from the Env so that
	// a registry outliving the run (an obs.Set keeps every rig's) holds
	// three words, not the rig.
	n *kernelCounts

	// met is the metrics registry, nil when metrics are off.
	met *obs.Registry

	// evFree recycles kernel-internal one-shot events (Sleep timers,
	// process-start events). Only events the kernel itself created and that
	// never escape to user code are pooled; see pooledEvent.
	evFree []*Event
}

// NewEnv returns a fresh environment at time 0 with the given base RNG seed.
// The seed feeds the per-name deterministic streams returned by Rand.
func NewEnv(seed int64) *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
		seed: seed,
		n:    new(kernelCounts),
	}
}

// kernelCounts are the scheduler's counts since the environment was created.
type kernelCounts struct {
	events  uint64 // queue entries fired
	resumes uint64 // process resumptions, aborts included
	spawned uint64 // processes spawned; the last one's id
}

// Events returns the number of queue entries fired so far — the kernel-level
// cost measure behind the driver's events-per-I/O accounting.
func (e *Env) Events() uint64 { return e.n.events }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer attaches a determinism tracer to the environment. The scheduler
// emits process-spawn, event-fire, resume and abort records into it; model
// components cache the pointer at construction for their own instrumentation
// points, so attach the tracer before building anything on the environment.
// Pass nil to detach.
func (e *Env) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer, or nil when tracing is off.
func (e *Env) Tracer() *trace.Tracer { return e.tracer }

// SetMetrics attaches a metrics registry to the environment. Like the
// tracer, model components cache the pointer (or instruments created from
// it) at construction, so attach the registry before building anything on
// the environment. Metrics are strictly passive — the registry never
// schedules events — so attaching one cannot change simulated behaviour or
// trace digests. Pass nil to detach.
func (e *Env) SetMetrics(m *obs.Registry) {
	e.met = m
	kernel := m.Component("sim") // nil registry -> nil component -> no-op
	n := e.n
	kernel.CounterOf("events_fired", func() uint64 { return n.events })
	kernel.CounterOf("procs_spawned", func() uint64 { return n.spawned })
	kernel.CounterOf("proc_resumes", func() uint64 { return n.resumes })
}

// Metrics returns the attached registry, or nil when metrics are off.
func (e *Env) Metrics() *obs.Registry { return e.met }

// SetFaults attaches a fault injector to the environment. Model components
// cache the pointer at their injection points during construction — the
// same discipline as the tracer and metrics registry — so attach the
// injector before building anything on the environment. A nil injector (the
// default) costs one pointer compare per potential injection point. The
// injector is stateful and belongs to exactly this environment; build a
// fresh one per rig from a shared rule list.
func (e *Env) SetFaults(in *fault.Injector) { e.faults = in }

// Faults returns the attached fault injector, or nil when injection is off.
func (e *Env) Faults() *fault.Injector { return e.faults }

// scheduled is an entry in the event queue. Exactly one of fn and ev is set:
// fn is the Schedule fast path (a bare callback with no Event allocated),
// ev everything else.
type scheduled struct {
	at  Time
	seq uint64
	fn  func()
	ev  *Event
}

// eventQueue is the far tier of the event queue: a 4-ary min-heap of the
// scheduled entries that were due beyond the timing wheel's horizon when
// they were pushed — a per cent or so of a 4 KiB random run, a twelfth of a
// 128 KiB sequential one — ordered by (at, seq). It is hand-rolled on the
// concrete type rather than container/heap: the interface-based heap boxes
// every pushed entry into an `any` (one heap allocation per event) and pays
// dynamic dispatch per comparison. The wider fan-out also shallows the
// tree: a 4-ary heap does ~half the levels of a binary heap on sift-down,
// trading slightly more comparisons per level for far fewer swaps.
type eventQueue struct {
	s []scheduled
}

// before reports whether a fires before b: (time, sequence) order. seq is
// unique per push, so this is a total order and pop order is deterministic.
func (q *eventQueue) before(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(it scheduled) {
	q.s = append(q.s, it)
	i := len(q.s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.before(&q.s[i], &q.s[parent]) {
			break
		}
		q.s[i], q.s[parent] = q.s[parent], q.s[i]
		i = parent
	}
}

func (q *eventQueue) pop() scheduled {
	s := q.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = scheduled{} // release fn/ev references
	q.s = s[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	s := q.s
	n := len(s)
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.before(&s[c], &s[min]) {
				min = c
			}
		}
		if !q.before(&s[min], &s[i]) {
			return
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
}

// enqueue stamps it with the next sequence number and queues it: in the
// timing wheel when it is due within the wheel's horizon — on a data-path
// run some 98 % of pushes, a fifth to a quarter of them for the current
// instant, which is simply the clock's own slot — and in the far heap
// otherwise, or when the wheel declines it (a slot crowded with distinct
// times; see wheel.push). An entry never changes tier: a far entry that the
// clock has since come close to stays in the heap, and run takes whichever
// of the two tiers' first entries is earlier by (at, seq), so the fire order
// is exactly that of one queue whichever tier an entry went to.
func (e *Env) enqueue(it scheduled) {
	e.seq++
	it.seq = e.seq
	if !wheelCovers(e.now, it.at) || !e.near.push(it) {
		e.far.push(it)
	}
}

func (e *Env) push(at Time, ev *Event) { e.enqueue(scheduled{at: at, ev: ev}) }

// pending returns the number of queued entries, both tiers.
func (e *Env) pending() int { return e.near.n + len(e.far.s) }

// Schedule runs fn in scheduler context after delay. It is the lightweight,
// callback-style alternative to starting a process; device models use it for
// internal pipeline stages. The callback travels in the queue entry itself —
// no Event is allocated, which makes Schedule the cheapest way to sequence
// virtual-time work.
func (e *Env) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.enqueue(scheduled{at: e.now + delay, fn: fn})
}

// After runs fn once delay has elapsed: the continuation mirror of
// Proc.Sleep, including its run-immediately semantics when delay is zero or
// negative (a completion time already in the past).
func (e *Env) After(delay Time, fn func()) {
	if delay > 0 {
		e.Schedule(delay, fn)
		return
	}
	fn()
}

// Run processes events until the queue is empty, then returns the final
// virtual time. Processes still blocked on untriggered events remain blocked;
// call Shutdown to unwind them.
func (e *Env) Run() Time { return e.run(-1, nil) }

// RunUntil processes events up to and including virtual time t and then
// returns. The clock is left at t even if the queue drained earlier.
func (e *Env) RunUntil(t Time) Time {
	e.run(t, nil)
	if e.now < t {
		e.now = t
	}
	return e.now
}

// RunUntilEvent processes events until ev has fired (or the queue runs
// dry). Use it to drive a simulation that hosts immortal server processes
// (pollers, monitors) whose periodic timers would keep Run spinning
// forever.
func (e *Env) RunUntilEvent(ev *Event) Time { return e.run(-1, ev) }

// Diagnosis describes why a watched run stopped before its event fired: the
// structured alternative to a hung test. Deadlock means the event queue went
// dry with the workload unfinished — every remaining process is blocked on
// an event nothing will ever trigger. HorizonHit means events were still
// flowing but the workload failed to finish inside the time budget (a
// livelock, or a horizon set too tight).
type Diagnosis struct {
	At         Time // virtual time the watchdog gave up
	HorizonHit bool // true: budget exhausted; false: true deadlock
	Pending    int  // events still queued (0 on a deadlock)
	// Blocked lists the live-but-blocked processes as "id:name", in spawn
	// order — the wait-for picture a deadlocked rig leaves behind.
	Blocked []string
}

// String renders the diagnosis the way a failure report quotes it.
func (d *Diagnosis) String() string {
	kind := "deadlock"
	if d.HorizonHit {
		kind = "horizon"
	}
	return fmt.Sprintf("sim %s at t=%dns: %d events pending, blocked procs %v",
		kind, d.At, d.Pending, d.Blocked)
}

// RunUntilEventWatched is RunUntilEvent with a liveness watchdog: it stops
// as soon as ev fires (returning a nil Diagnosis), the queue drains, or the
// clock passes horizon — the latter two produce a structured Diagnosis
// instead of a hang. The watchdog costs no extra events and is fully
// deterministic: the emitted trace record folds into the digest like any
// other kernel record, so a watched run replays bit-identically.
func (e *Env) RunUntilEventWatched(ev *Event, horizon Time) (Time, *Diagnosis) {
	e.run(horizon, ev)
	if ev.processed {
		return e.now, nil
	}
	d := &Diagnosis{
		At:         e.now,
		HorizonHit: e.pending() > 0,
		Pending:    e.pending(),
	}
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		d.Blocked = append(d.Blocked, fmt.Sprintf("%d:%s", p.id, p.name))
	}
	kind := "deadlock"
	if d.HorizonHit {
		kind = "horizon"
	}
	e.tracer.Emit(e.now, "sim", kind, uint64(len(d.Blocked)), uint64(d.Pending), "")
	return e.now, d
}

// run is the scheduler hot loop shared by Run, RunUntil and RunUntilEvent:
// take entries in (time, seq) order until none is left, the next one lies
// beyond limit (when limit >= 0), or until has fired (when non-nil). The
// next entry is the earlier of the wheel's first and the far heap's top.
func (e *Env) run(limit Time, until *Event) Time {
	near, far := &e.near, &e.far
	for {
		if until != nil && until.processed {
			break
		}
		var next *scheduled
		var slot uint
		if near.n > 0 {
			slot = near.first(e.now)
			next = &near.nodes[near.head[slot]].it
		}
		fromFar := len(far.s) > 0 && (next == nil || far.before(&far.s[0], next))
		if fromFar {
			next = &far.s[0]
		} else if next == nil {
			break
		}
		if limit >= 0 && next.at > limit {
			break
		}
		var it scheduled
		if fromFar {
			it = far.pop()
		} else {
			it = near.pop(slot)
		}
		if it.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = it.at
		e.n.events++
		e.tracer.Emit(e.now, "sim", "fire", it.seq, 0, "")
		if it.fn != nil {
			it.fn()
		} else {
			e.fire(it.ev)
		}
	}
	return e.now
}

// fire marks ev processed, runs callbacks and resumes waiting processes.
func (e *Env) fire(ev *Event) {
	if ev.processed || ev.aborted {
		return
	}
	ev.processed = true
	ev.pending = false
	cbs := ev.callbacks
	ev.callbacks = nil
	for _, cb := range cbs {
		cb(ev.val)
	}
	ws := ev.waiters
	ev.waiters = nil
	for _, p := range ws {
		if p.done {
			continue
		}
		e.resume(p, resumeMsg{val: ev.val, ev: ev})
	}
	if ev.pooled {
		// Keep both arrays across recycles so a reused event appends
		// without allocating, but empty them: a parked event must not keep
		// finished processes or per-command callbacks alive.
		clear(cbs)
		clear(ws)
		*ev = Event{env: e, pooled: true, callbacks: cbs[:0], waiters: ws[:0]}
		e.evFree = append(e.evFree, ev)
	}
}

// PooledEvent returns a one-shot event from the environment's free list.
// Contract: the event must be triggered exactly once and no reference to it
// may be kept after it fires — the kernel recycles it at the end of fire,
// after callbacks ran and waiters resumed. An event that is abandoned
// (never triggered, or aborted) simply drops out of the pool; that is safe
// but wastes the recycle. Data-path components use this for their
// per-command completion signalling so steady-state I/O allocates nothing.
func (e *Env) PooledEvent() *Event { return e.pooledEvent() }

// pooledEvent returns a recycled kernel-internal event, or a fresh one. The
// caller must guarantee the event never escapes to user code: it is handed
// back to the free list at the end of fire, after its waiters have resumed
// and moved on.
func (e *Env) pooledEvent() *Event {
	if n := len(e.evFree); n > 0 {
		ev := e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
		return ev
	}
	return &Event{env: e, pooled: true}
}

type resumeMsg struct {
	val   any
	ev    *Event
	abort bool
}

// coro is one runtime coroutine that runs process bodies, one after
// another: it parks in Env.coFree between them.
type coro struct {
	next  func() (struct{}, bool) // switch into the coroutine
	yield func(struct{}) bool     // switch back out of it; false once stopped
	stop  func()                  // end a parked coroutine
	p     *Proc                   // the process the next activation runs
	msg   resumeMsg               // why the blocked process is being resumed
}

// newCoro creates a coroutine; its first next() runs c.p.
func (e *Env) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.p.run()
			c.p = nil
			e.coFree = append(e.coFree, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// resume hands control to process p and returns when it blocks or finishes.
// A panic in the process body (or a runtime.Goexit, as from t.FailNow)
// surfaces here, in the goroutine that called Run.
func (e *Env) resume(p *Proc, m resumeMsg) {
	e.n.resumes++
	if !m.abort {
		e.tracer.Emit(e.now, "sim", "resume", p.id, 0, p.name)
	}
	c := p.co
	if c == nil { // first activation
		if m.abort {
			p.fn, p.done = nil, true
			delete(e.live, p)
			return
		}
		if n := len(e.coFree); n > 0 {
			c = e.coFree[n-1]
			e.coFree = e.coFree[:n-1]
		} else {
			c = e.newCoro()
		}
		c.p, p.co = p, c
	}
	c.msg = m // read by the yield this wakes; a starting body reads none
	c.next()
}

// Shutdown aborts every live process — each blocked process's wait panics
// with an internal sentinel that the process wrapper recovers, a process
// that never started is simply dropped — and then stops the parked
// coroutines, so an environment that was shut down holds no goroutine. Use
// it when a rig is done to avoid leaking the goroutines of server-style
// processes. Processes are unwound in spawn order, so shutdown — like
// everything else on the environment — is deterministic and safe to include
// in a trace digest.
func (e *Env) Shutdown() {
	for len(e.live) > 0 {
		procs := make([]*Proc, 0, len(e.live))
		for p := range e.live {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
		for _, p := range procs {
			if _, alive := e.live[p]; !alive {
				continue // unwound as a side effect of an earlier abort
			}
			e.tracer.Emit(e.now, "sim", "abort", p.id, 0, p.name)
			e.resume(p, resumeMsg{abort: true})
		}
	}
	for _, c := range e.coFree {
		c.stop()
	}
	e.coFree = nil
}

// newProc registers a process that has not run yet, with no Done event.
func (e *Env) newProc(name string, fn func(p *Proc)) *Proc {
	e.n.spawned++
	p := &Proc{env: e, id: e.n.spawned, name: name, fn: fn}
	e.live[p] = struct{}{}
	e.tracer.Emit(e.now, "sim", "spawn", p.id, 0, name)
	return p
}

// Go starts fn as a new simulation process named name. The process begins
// running at the current virtual time, once the scheduler reaches its
// zero-delay start event, so processes start in the order they were spawned.
// Go returns a *Proc handle whose Done event fires when fn returns. fn runs
// on a pooled coroutine: a panic in it reaches the caller of Run as
// `sim: process "<name>" panicked: …`.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := e.newProc(name, fn)
	p.doneEv = e.NewEvent()
	// Activate via a zero-delay pooled event so start order is deterministic.
	start := e.pooledEvent()
	start.waiters = append(start.waiters, p)
	e.push(e.now, start)
	start.pending = true
	return p
}

// Start runs fn as a new simulation process named name in place: the body
// starts inside the call, at the caller's program point, and Start returns
// when it first blocks or returns. It costs no queue entry, and the process
// has no Done event (Done returns nil), so finishing costs none either — what
// the process hands back, it hands back itself. Start is for a step of a
// callback chain that must become sequential code part-way (a recovery that
// waits on timers and on other commands): the code runs exactly where the
// callback would have run it. It may be called from scheduler context or
// from a process; a panic in fn reaches the caller of Start as Go's does.
func (e *Env) Start(name string, fn func(p *Proc)) {
	e.resume(e.newProc(name, fn), resumeMsg{})
}

var errAborted = fmt.Errorf("sim: process aborted")
